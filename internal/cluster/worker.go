package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"mosaicsim/internal/jobs"
)

// WorkerOptions configures one fleet worker.
type WorkerOptions struct {
	// Name identifies this worker to the coordinator. Required.
	Name string
	// Coordinator is the coordinator's base URL (no trailing slash).
	Coordinator string
	// Manager executes leased jobs locally — the same engine stack a
	// standalone daemon runs, so a fleet report is byte-identical to a
	// single-process one. Required; typically built with its own cache,
	// registry, and Workers > 0.
	Manager *jobs.Manager
	// Slots caps concurrently leased jobs. Zero means 1.
	Slots int
	// Poll is the back-off after an error: the coordinator unreachable, a
	// failed register or completion, or a lease request it declined to park
	// (it is draining). An idle worker does not poll — its lease request
	// stays parked at the coordinator. Zero means 250ms.
	Poll time.Duration
	// Client is the HTTP client to use; nil means a 10s-timeout client.
	Client *http.Client
}

// Worker leases jobs from a coordinator and runs them on a local manager.
// It forwards stage/progress events as they happen, renews its leases
// through heartbeats, and completes each job with the local report. The
// affinity hashes of executed jobs accumulate and ride future lease
// requests, so repeat work lands on this worker's warm caches.
type Worker struct {
	opts WorkerOptions
	// hold is the wait each lease request asks for. register sets it before
	// the lease loop — its only reader, on the same goroutine — starts.
	hold time.Duration

	mu       sync.Mutex
	ttl      time.Duration
	hb       time.Duration
	inflight map[string]string // coordinator job ID → local job ID
	affinity map[uint64]bool
}

// NewWorker validates opts and builds a worker. Run starts it.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Name == "" {
		return nil, errors.New("cluster: worker name is required")
	}
	if opts.Coordinator == "" {
		return nil, errors.New("cluster: coordinator URL is required")
	}
	if opts.Manager == nil {
		return nil, errors.New("cluster: worker needs a local manager")
	}
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	if opts.Poll <= 0 {
		opts.Poll = 250 * time.Millisecond
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 10 * time.Second}
	}
	opts.Coordinator = strings.TrimRight(opts.Coordinator, "/")
	return &Worker{
		opts:     opts,
		inflight: make(map[string]string),
		affinity: make(map[uint64]bool),
	}, nil
}

// Run registers with the coordinator and works until ctx is cancelled,
// then drains: no new leases are taken (a parked lease request is abandoned
// at once), in-flight jobs finish and complete (heartbeats continue so their
// leases stay alive), and Run returns.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	// Heartbeats outlive ctx: they carry lease renewals for the drain.
	hbCtx, stopHB := context.WithCancel(context.WithoutCancel(ctx))
	defer stopHB()
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		w.heartbeatLoop(hbCtx)
	}()

	var wg sync.WaitGroup
	slots := make(chan struct{}, w.opts.Slots) // counting semaphore: one token per leased job
	for ctx.Err() == nil {
		// Block on a free slot, not on a timer: execute's return releases one.
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
			continue
		}
		asked := time.Now()
		lease, err := w.lease(ctx)
		if lease == nil {
			<-slots
			// A 204 after a full hold is the idle case: ask again at once.
			// An error, or a 204 well before the hold was up (the coordinator
			// is draining and parks nothing), backs off instead of spinning.
			if err != nil || time.Since(asked) < w.hold/2 {
				sleep(ctx, w.opts.Poll)
			}
			continue
		}
		// Reserve the heartbeat entry before execute() runs, so the lease is
		// renewed from its first heartbeat on.
		w.mu.Lock()
		w.inflight[lease.JobID] = ""
		w.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			w.execute(ctx, lease)
		}()
	}
	wg.Wait()
	stopHB()
	hbDone.Wait()
	return ctx.Err()
}

// register announces the worker, retrying until the coordinator answers or
// ctx is cancelled, and adopts the returned lease TTL and heartbeat
// interval.
func (w *Worker) register(ctx context.Context) error {
	req := RegisterRequest{Name: w.opts.Name, Slots: w.opts.Slots}
	for {
		var resp RegisterResponse
		_, err := w.post(ctx, "/cluster/v1/register", req, &resp)
		if err == nil {
			w.mu.Lock()
			w.ttl = resp.LeaseTTL
			w.hb = resp.HeartbeatEvery
			if w.hb <= 0 {
				w.hb = 5 * time.Second
			}
			// The coordinator holds a lease request for at most a heartbeat
			// interval; ask for no more than half the client timeout, so a
			// parked request is answered before the client gives up on it.
			w.hold = w.hb
			w.mu.Unlock()
			if t := w.opts.Client.Timeout; t > 0 {
				w.hold = min(w.hold, t/2)
			}
			return nil
		}
		if !sleep(ctx, w.opts.Poll) {
			return fmt.Errorf("cluster: register with %s: %w", w.opts.Coordinator, err)
		}
	}
}

// heartbeatLoop reports liveness at the coordinator's interval, renewing
// every in-flight lease and aborting local runs the coordinator cancelled
// or no longer credits to us.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	w.mu.Lock()
	period := w.hb
	w.mu.Unlock()
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		req := HeartbeatRequest{Name: w.opts.Name, Running: w.runningIDs()}
		var resp HeartbeatResponse
		if _, err := w.post(ctx, "/cluster/v1/heartbeat", req, &resp); err != nil {
			continue // transient: leases survive until the TTL, keep trying
		}
		for _, id := range append(resp.Cancels, resp.Lost...) {
			w.abortLocal(id)
		}
	}
}

// lease asks for one job, parked at the coordinator for up to the hold; nil
// without error means none was queued for that long. ctx abandons a parked
// request at once.
func (w *Worker) lease(ctx context.Context) (*jobs.Lease, error) {
	w.mu.Lock()
	hashes := make([]uint64, 0, len(w.affinity))
	for h := range w.affinity {
		hashes = append(hashes, h)
	}
	w.mu.Unlock()
	var lease jobs.Lease
	req := LeaseRequest{Name: w.opts.Name, Affinity: hashes, Wait: w.hold}
	code, err := w.post(ctx, "/cluster/v1/lease", req, &lease)
	if err != nil {
		return nil, err
	}
	if code == http.StatusNoContent {
		return nil, nil
	}
	return &lease, nil
}

// execute runs one leased job on the local manager, forwarding its stage
// and progress events, and completes the lease with the local outcome. It
// runs to completion after ctx is cancelled (the drain); ctx only cuts the
// completion's retry back-off short.
func (w *Worker) execute(ctx context.Context, l *jobs.Lease) {
	defer func() {
		w.mu.Lock()
		delete(w.inflight, l.JobID)
		w.mu.Unlock()
	}()
	j, err := w.opts.Manager.Submit(l.Spec)
	if err != nil {
		w.complete(ctx, l.JobID, nil, fmt.Sprintf("worker %s: submit: %v", w.opts.Name, err))
		return
	}
	w.mu.Lock()
	w.inflight[l.JobID] = j.ID
	w.mu.Unlock()
	next := 0
	for {
		evs, more, done := j.EventsSince(next)
		next += len(evs)
		w.postEvents(ctx, l.JobID, evs)
		if done {
			break
		}
		<-more
	}
	// The local caches are warm for this spec now, whatever the outcome:
	// claim affinity before completing so the hash is visible as soon as
	// the coordinator learns the job finished.
	w.mu.Lock()
	w.affinity[l.Affinity] = true
	w.mu.Unlock()
	switch st := j.Status(); st.State {
	case jobs.StateDone:
		w.complete(ctx, l.JobID, st.Report, "")
	case jobs.StateCancelled:
		// Cancels originate at the coordinator, which already finished the
		// job there; this completion is a no-op 409 that keeps the
		// protocol honest if the local cancel had another cause.
		w.complete(ctx, l.JobID, nil, "cancelled on worker "+w.opts.Name)
	default:
		w.complete(ctx, l.JobID, nil, st.Error)
	}
}

// complete reports a leased job's outcome, retrying transient failures while
// the worker runs; once ctx is cancelled a failed completion is left to the
// lease's expiry. A 409 means the lease was lost (expired, cancelled, or
// finished elsewhere) — the run is abandoned without further noise.
func (w *Worker) complete(ctx context.Context, id string, report json.RawMessage, errMsg string) {
	req := CompleteRequest{Name: w.opts.Name, Report: report, Error: errMsg}
	for attempt := 0; attempt < 5; attempt++ {
		code, err := w.post(context.WithoutCancel(ctx), "/cluster/v1/jobs/"+id+"/complete", req, nil)
		if err == nil || code == http.StatusConflict || code == http.StatusNotFound {
			return
		}
		if !sleep(ctx, w.opts.Poll) {
			return
		}
	}
}

// postEvents forwards one drain of the local event log (its lifecycle edges
// left out: the coordinator emits its own) as a single request. Best-effort:
// a dropped progress tick costs observability, never correctness, so
// failures are not retried.
func (w *Worker) postEvents(ctx context.Context, id string, evs []jobs.Event) {
	fwd := make([]jobs.Event, 0, len(evs))
	for _, e := range evs {
		if e.Type != "state" {
			fwd = append(fwd, e)
		}
	}
	if len(fwd) == 0 {
		return
	}
	_, _ = w.post(context.WithoutCancel(ctx), "/cluster/v1/jobs/"+id+"/events", EventRequest{Name: w.opts.Name, Events: fwd}, nil)
}

// abortLocal cancels the local run backing coordinator job id, if any. A
// reserved slot whose local submit has not landed yet ("" entry) is waited
// out briefly — cancels are delivered once per heartbeat and must not be
// dropped into that window.
func (w *Worker) abortLocal(id string) {
	for i := 0; i < 50; i++ {
		w.mu.Lock()
		local, ok := w.inflight[id]
		w.mu.Unlock()
		if !ok {
			return // already finished
		}
		if local != "" {
			_, _ = w.opts.Manager.Cancel(local)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runningIDs snapshots the coordinator job IDs currently executing here.
func (w *Worker) runningIDs() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids := make([]string, 0, len(w.inflight))
	for id := range w.inflight {
		ids = append(ids, id)
	}
	return ids
}

// Affinity returns a copy of the artifact-affinity hashes this worker has
// executed (its warm-cache claim on future leases).
func (w *Worker) Affinity() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]uint64, 0, len(w.affinity))
	for h := range w.affinity {
		out = append(out, h)
	}
	return out
}

// post sends one JSON request under ctx and decodes a 200 response into resp
// (when non-nil). Non-2xx statuses return the decoded error message.
func (w *Worker) post(ctx context.Context, path string, req, resp any) (int, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Coordinator+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hr, err := w.opts.Client.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer hr.Body.Close()
	body, _ := io.ReadAll(hr.Body)
	if hr.StatusCode >= 400 {
		var ae struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(body))
		if json.Unmarshal(body, &ae) == nil && ae.Error != "" {
			msg = ae.Error
		}
		return hr.StatusCode, fmt.Errorf("cluster: %s: %s: %s", path, hr.Status, msg)
	}
	if resp != nil && hr.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, resp); err != nil {
			return hr.StatusCode, fmt.Errorf("cluster: %s: decode response: %w", path, err)
		}
	}
	return hr.StatusCode, nil
}

// sleep waits for d or ctx, reporting whether the full wait elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
