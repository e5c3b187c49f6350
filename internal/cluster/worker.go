package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
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
	// Executor runs the leased jobs: the type a standalone daemon runs, so
	// a fleet report is byte-identical to a single-process one. Required.
	Executor *jobs.Executor
	// Slots caps concurrently leased jobs (at least 1).
	Slots int
	// Poll is the back-off after an error: the coordinator unreachable, a
	// failed register or completion, or a lease request it declined to park
	// (it is draining). An idle worker does not poll — its lease request
	// stays parked at the coordinator. Zero means 250ms.
	Poll time.Duration
}

// requestTimeout bounds every request to the coordinator.
const requestTimeout = 10 * time.Second

// Worker is the /cluster/v1 client: the jobs.LeaseSource that feeds an
// executor's lease loop from a coordinator. It forwards stage/progress
// events as they happen, renews its leases through heartbeats, and completes
// each job with the run's report. It keeps no job records — only, per
// lease, the run holding it. The affinity hashes of executed jobs ride
// future lease requests, so repeat work lands on this worker's warm caches.
type Worker struct {
	opts   WorkerOptions
	client *http.Client
	// hold is the wait each lease request asks for and hb the heartbeat
	// period; register sets both before the loops that read them start.
	hold, hb time.Duration

	mu sync.Mutex
	// runs is keyed by the lease, not its job: a job whose lease lapsed (or
	// whose coordinator restarted) can be granted here again, on another
	// slot, while its first run is still unwinding.
	runs     map[*jobs.Lease]*run
	affinity []uint64 // hashes of the jobs executed here
}

// run is one lease being executed here.
type run struct {
	loop  context.Context    // the lease loop's: cuts retry back-offs short at drain
	ctx   context.Context    // the run's: done exactly when the lease is gone
	abort context.CancelFunc // ends ctx
	// events carries the run's events to its forwarder; Complete closes it.
	// The buffer lets the simulating goroutine run ahead of the network.
	events  chan jobs.Event
	flushed chan struct{} // closed when the forwarder has posted everything
}

// NewWorker validates opts and builds a worker. Run starts it.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Name == "" {
		return nil, errors.New("cluster: worker name is required")
	}
	if opts.Coordinator == "" {
		return nil, errors.New("cluster: coordinator URL is required")
	}
	if opts.Poll <= 0 {
		opts.Poll = 250 * time.Millisecond
	}
	opts.Coordinator = strings.TrimRight(opts.Coordinator, "/")
	return &Worker{
		opts:   opts,
		client: &http.Client{Timeout: requestTimeout},
		runs:   make(map[*jobs.Lease]*run),
	}, nil
}

// Run registers with the coordinator and feeds the executor's lease loop
// until ctx is cancelled, then drains: no new leases are taken (a parked
// lease request is abandoned at once), in-flight jobs finish and complete
// (heartbeats continue so their leases stay alive), and Run returns.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	// Heartbeats outlive ctx: they carry lease renewals for the drain.
	hbCtx, stopHB := context.WithCancel(context.WithoutCancel(ctx))
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(hbCtx)
	}()
	w.opts.Executor.Serve(ctx, w, w.opts.Slots)
	stopHB()
	<-hbDone
	return ctx.Err()
}

// register announces the worker, retrying until the coordinator answers or
// ctx is cancelled, and adopts the returned heartbeat interval.
func (w *Worker) register(ctx context.Context) error {
	req := RegisterRequest{Name: w.opts.Name, Slots: w.opts.Slots}
	for {
		var resp RegisterResponse
		_, err := w.post(ctx, "/cluster/v1/register", req, &resp)
		if err == nil {
			w.hb = resp.HeartbeatEvery
			// The coordinator holds a lease request for at most a heartbeat
			// interval; ask for no more than half the request timeout, so a
			// parked request is answered before the client gives up on it.
			w.hold = min(w.hb, requestTimeout/2)
			return nil
		}
		if !sleep(ctx, w.opts.Poll) {
			return fmt.Errorf("cluster: register with %s: %w", w.opts.Coordinator, err)
		}
	}
}

// heartbeatLoop reports liveness at the coordinator's interval, renewing
// every held lease and aborting the runs whose lease the coordinator
// cancelled or no longer credits to us.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(max(w.hb, 10*time.Millisecond))
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
		lost := append(resp.Cancels, resp.Lost...)
		w.mu.Lock()
		for l, r := range w.runs {
			if slices.Contains(lost, l.JobID) {
				r.abort()
			}
		}
		w.mu.Unlock()
	}
}

// Lease implements jobs.LeaseSource: it asks — each request parked at the
// coordinator for up to the hold, and abandoned at once when ctx ends —
// until a job is granted. The run's context ends when the lease is lost,
// never merely because ctx did (a drain finishes its runs).
func (w *Worker) Lease(ctx context.Context) (*jobs.Lease, context.Context) {
	for ctx.Err() == nil {
		l := new(jobs.Lease)
		asked := time.Now()
		code, err := w.post(ctx, "/cluster/v1/lease", LeaseRequest{Name: w.opts.Name, Affinity: w.Affinity(), Wait: w.hold}, l)
		if err != nil || code == http.StatusNoContent {
			// A 204 after a full hold is the idle case: ask again at once.
			// An error, or a 204 well before the hold was up (the coordinator
			// is draining and parks nothing), backs off instead of spinning.
			if err != nil || time.Since(asked) < w.hold/2 {
				sleep(ctx, w.opts.Poll)
			}
			continue
		}
		// Registered before the run starts: the lease is renewed from its
		// first heartbeat on, and can be aborted from its first event on.
		r := &run{loop: ctx, events: make(chan jobs.Event, 64), flushed: make(chan struct{})}
		r.ctx, r.abort = context.WithCancel(context.WithoutCancel(ctx))
		w.mu.Lock()
		w.runs[l] = r
		w.mu.Unlock()
		go w.forward(l.JobID, r)
		return l, r.ctx
	}
	return nil, nil
}

// Event implements jobs.LeaseSource by handing e to the run's forwarder. A
// progress tick that finds the buffer full — the coordinator is slow, or
// unreachable — is dropped rather than stall the simulation behind the
// network; stage events and the final tick wait for room.
func (w *Worker) Event(l *jobs.Lease, e jobs.Event) {
	w.mu.Lock()
	r := w.runs[l]
	w.mu.Unlock()
	if e.Type != "progress" || e.Final {
		r.events <- e
		return
	}
	select {
	case r.events <- e:
	default:
	}
}

// forward posts a run's events, each request carrying everything emitted
// since the last. Failures are not retried, but a 409 is the coordinator
// saying the lease is gone (job cancelled, or expired and requeued): the run
// is aborted at once instead of simulating on until the next heartbeat.
func (w *Worker) forward(id string, r *run) {
	defer close(r.flushed)
	for e := range r.events {
		batch := []jobs.Event{e}
		for n := len(r.events); n > 0; n-- { // buffered already: this is the only receiver
			batch = append(batch, <-r.events)
		}
		code, _ := w.post(context.WithoutCancel(r.loop), "/cluster/v1/jobs/"+id+"/events", EventRequest{Name: w.opts.Name, Events: batch}, nil)
		if code == http.StatusConflict {
			r.abort()
		}
	}
}

// Complete implements jobs.LeaseSource: it flushes the run's events, reports
// the outcome — retrying transient failures while the worker runs; at drain
// a failed completion is left to the lease's expiry — and lets go of the
// lease. A run that was aborted reports nothing: its lease is gone, and the
// job may by now be leased again (even here) to a run the abort's error
// would fail. A 409 says the same after the fact.
func (w *Worker) Complete(l *jobs.Lease, report json.RawMessage, err error) {
	// The caches are warm for this spec now, whatever the outcome: claim
	// affinity before the coordinator learns the job finished.
	w.mu.Lock()
	r := w.runs[l]
	if !slices.Contains(w.affinity, l.Affinity) {
		w.affinity = append(w.affinity, l.Affinity)
	}
	w.mu.Unlock()
	close(r.events)
	<-r.flushed
	req := CompleteRequest{Name: w.opts.Name, Report: report}
	if err != nil {
		req.Report, req.Error = nil, err.Error()
	}
	for attempt := 0; attempt < 5 && r.ctx.Err() == nil; attempt++ {
		code, err := w.post(context.WithoutCancel(r.loop), "/cluster/v1/jobs/"+l.JobID+"/complete", req, nil)
		if err == nil || code == http.StatusConflict || code == http.StatusNotFound {
			break
		}
		if !sleep(r.loop, w.opts.Poll) {
			break
		}
	}
	w.mu.Lock()
	delete(w.runs, l)
	w.mu.Unlock()
	r.abort()
}

// runningIDs snapshots the coordinator job IDs currently executing here.
func (w *Worker) runningIDs() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids := make([]string, 0, len(w.runs))
	for l := range w.runs {
		ids = append(ids, l.JobID)
	}
	return ids
}

// Affinity returns a copy of the artifact-affinity hashes this worker has
// executed (its warm-cache claim on future leases).
func (w *Worker) Affinity() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.affinity)
}

// post sends one JSON request under ctx and decodes a 200 response into resp
// (when non-nil). A 4xx or 5xx is an error carrying the status and the body.
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
	hr, err := w.client.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer hr.Body.Close()
	body, _ := io.ReadAll(hr.Body)
	if hr.StatusCode >= 400 {
		return hr.StatusCode, fmt.Errorf("cluster: %s: %s: %s", path, hr.Status, bytes.TrimSpace(body))
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
