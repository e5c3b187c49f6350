package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mosaicsim/internal/jobs"
)

// These tests pin the push-based lease dispatch: an idle worker's lease
// request is parked at the coordinator, so nothing on the job path may depend
// on WorkerOptions.Poll (set to an hour wherever it must not matter).

// expectMetric fails unless the manager's exposition has the exact line.
func expectMetric(t *testing.T, m *jobs.Manager, line string) {
	t.Helper()
	var buf bytes.Buffer
	m.Registry().WriteText(&buf)
	for _, l := range strings.Split(buf.String(), "\n") {
		if l == line {
			return
		}
	}
	t.Errorf("metrics lack %q", line)
}

// leaseCounter wraps a coordinator, counting lease requests as they arrive
// and how many are parked inside it right now.
type leaseCounter struct {
	next    http.Handler
	arrived atomic.Int64
	parked  atomic.Int64
}

func (c *leaseCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/cluster/v1/lease" {
		c.arrived.Add(1)
		c.parked.Add(1)
		defer c.parked.Add(-1)
	}
	c.next.ServeHTTP(w, r)
}

// waitFor polls cond (test-side only: the conditions are other goroutines'
// progress, which has no event to wait on).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fleet is one coordinator behind a counting HTTP server.
type fleet struct {
	mgr   *jobs.Manager
	coord *Coordinator
	count *leaseCounter
	srv   *httptest.Server
}

func newFleet(t *testing.T, opts CoordinatorOptions) *fleet {
	t.Helper()
	f := &fleet{mgr: jobs.NewManager(jobs.Options{Workers: -1, QueueDepth: 32})}
	f.coord = NewCoordinator(f.mgr, opts)
	f.count = &leaseCounter{next: f.coord}
	f.srv = httptest.NewServer(f.count)
	t.Cleanup(func() {
		shutdown(t, f.mgr) // first: wakes parked requests so Close can return
		f.srv.Close()
	})
	return f
}

// stubWorker starts a worker over a stub engine and returns its Run result
// channel.
func (f *fleet) stubWorker(t *testing.T, ctx context.Context, opts WorkerOptions, run jobs.Runner) <-chan error {
	t.Helper()
	mgr := jobs.NewManager(jobs.Options{Workers: 4, Runner: run})
	t.Cleanup(func() { shutdown(t, mgr) })
	opts.Coordinator, opts.Manager = f.srv.URL, mgr
	w, err := NewWorker(opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	return done
}

func okRunner(ctx context.Context, j *jobs.Job) (json.RawMessage, error) {
	return json.RawMessage(`{"ok":true}`), nil
}

func (f *fleet) submit(t *testing.T) *jobs.Job {
	t.Helper()
	j, err := f.mgr.Submit(jobs.Spec{Workload: "sgemm", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestParkedWorkerRunsJobsWithoutPolling: with Poll an hour, a job submitted
// to a parked one-slot worker completes (the parked request is granted), and
// one submitted right after completes too (the freed slot asks again at once).
func TestParkedWorkerRunsJobsWithoutPolling(t *testing.T) {
	f := newFleet(t, CoordinatorOptions{LeaseTTL: 30 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := f.stubWorker(t, ctx, WorkerOptions{Name: "w1", Slots: 1, Poll: time.Hour}, okRunner)
	waitFor(t, "the idle worker to park a lease request", func() bool { return f.count.parked.Load() == 1 })

	for i := 0; i < 2; i++ {
		j := f.submit(t)
		if st := waitTerminal(t, j, 5*time.Second); st != jobs.StateDone {
			t.Fatalf("job %d finished %s: %s", i, st, j.Status().Error)
		}
	}
	expectMetric(t, f.mgr, "mosaicd_queue_wait_seconds_count 2")
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("Run returned %v, want context.Canceled", err)
	}
}

// TestLeaseLongPollAnswers plays a raw worker against each way a lease
// request is answered.
func TestLeaseLongPollAnswers(t *testing.T) {
	f := newFleet(t, CoordinatorOptions{LeaseTTL: 30 * time.Second, Heartbeat: 500 * time.Millisecond})
	url := f.srv.URL + "/cluster/v1/lease"
	timed := func(req LeaseRequest, resp any) (int, time.Duration) {
		t0 := time.Now()
		code := postJSON(t, url, req, resp)
		return code, time.Since(t0)
	}

	// No wait: the same path, answered at once.
	if code, d := timed(LeaseRequest{Name: "w"}, nil); code != http.StatusNoContent || d > 250*time.Millisecond {
		t.Errorf("lease without wait = %d after %v, want 204 at once", code, d)
	}
	// A wait that lapses: 204 after it, not before.
	if code, d := timed(LeaseRequest{Name: "w", Wait: 40 * time.Millisecond}, nil); code != http.StatusNoContent || d < 40*time.Millisecond {
		t.Errorf("lease with 40ms wait = %d after %v, want 204 after the wait", code, d)
	}
	// A wait beyond the heartbeat interval is capped at it.
	if code, d := timed(LeaseRequest{Name: "w", Wait: time.Minute}, nil); code != http.StatusNoContent || d < 500*time.Millisecond || d > 5*time.Second {
		t.Errorf("lease with 1m wait = %d after %v, want 204 at the 500ms heartbeat cap", code, d)
	}

	// A parked request is granted the moment a job is queued.
	f2 := newFleet(t, CoordinatorOptions{LeaseTTL: 30 * time.Second})
	type answer struct {
		code  int
		lease jobs.Lease
	}
	park := func(f *fleet) <-chan answer {
		before := f.count.arrived.Load()
		c := make(chan answer, 1)
		go func() {
			var a answer
			hr, err := http.Post(f.srv.URL+"/cluster/v1/lease", "application/json", strings.NewReader(`{"name":"w","wait":60000000000}`))
			if err != nil {
				t.Error(err)
				c <- a
				return
			}
			defer hr.Body.Close()
			a.code = hr.StatusCode
			if a.code == http.StatusOK {
				if err := json.NewDecoder(hr.Body).Decode(&a.lease); err != nil {
					t.Error(err)
				}
			}
			c <- a
		}()
		waitFor(t, "the request to arrive", func() bool { return f.count.arrived.Load() == before+1 })
		return c
	}
	await := func(c <-chan answer) answer {
		t.Helper()
		select {
		case a := <-c:
			return a
		case <-time.After(3 * time.Second):
			t.Fatal("parked lease request was not answered")
			return answer{}
		}
	}
	parked := park(f2)
	j := f2.submit(t)
	if a := await(parked); a.code != http.StatusOK || a.lease.JobID != j.ID {
		t.Errorf("parked request answered %d %+v, want 200 with %s", a.code, a.lease, j.ID)
	}
	postJSON(t, f2.srv.URL+"/cluster/v1/jobs/"+j.ID+"/complete", CompleteRequest{Name: "w", Report: json.RawMessage(`{}`)}, nil)

	// ... and answered 204 at once when the coordinator starts draining.
	parked = park(f2)
	shutdown(t, f2.mgr)
	if a := await(parked); a.code != http.StatusNoContent {
		t.Errorf("parked request answered %d at drain, want 204", a.code)
	}
}

// TestUndeliveredLeaseRequeues: a lease granted to a request whose client is
// already gone, or whose response cannot be written, goes straight back to
// the front of the queue — a requeue, never an expiry, and no TTL wait.
func TestUndeliveredLeaseRequeues(t *testing.T) {
	f := newFleet(t, CoordinatorOptions{LeaseTTL: time.Hour})
	j := f.submit(t)
	body := func() *bytes.Reader { return bytes.NewReader([]byte(`{"name":"gone"}`)) }

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest(http.MethodPost, "/cluster/v1/lease", body()).WithContext(gone)
	f.coord.ServeHTTP(httptest.NewRecorder(), r)
	if st := j.State(); st != jobs.StateQueued {
		t.Fatalf("job is %s after a grant to a vanished client, want queued", st)
	}

	r = httptest.NewRequest(http.MethodPost, "/cluster/v1/lease", body())
	f.coord.ServeHTTP(brokenWriter{httptest.NewRecorder()}, r)
	if st := j.State(); st != jobs.StateQueued {
		t.Fatalf("job is %s after a failed response write, want queued", st)
	}
	expectMetric(t, f.mgr, "mosaicd_jobs_requeued_total 2")
	expectMetric(t, f.mgr, "mosaicd_leases_expired_total 0")
	expectMetric(t, f.mgr, "mosaicd_leases_active 0")
	expectMetric(t, f.mgr, "mosaicd_fleet_leases_granted_total 0")

	// The next live request gets it, as the third attempt.
	var lease jobs.Lease
	if code := postJSON(t, f.srv.URL+"/cluster/v1/lease", LeaseRequest{Name: "w"}, &lease); code != http.StatusOK {
		t.Fatalf("lease status %d", code)
	}
	if lease.JobID != j.ID || lease.Attempt != 3 {
		t.Errorf("lease after two undelivered grants = %+v, want %s attempt 3", lease, j.ID)
	}
	evs, _, _ := j.EventsSince(0)
	requeues := 0
	for _, e := range evs {
		if e.State == jobs.StateQueued && e.Worker == "gone" && e.Error == "lease undelivered; requeued" {
			requeues++
		}
	}
	if requeues != 2 {
		t.Errorf("event log records %d undelivered-lease requeues, want 2: %+v", requeues, evs)
	}
	postJSON(t, f.srv.URL+"/cluster/v1/jobs/"+j.ID+"/complete", CompleteRequest{Name: "w", Report: json.RawMessage(`{}`)}, nil)
}

// brokenWriter is a response writer whose connection is dead.
type brokenWriter struct{ *httptest.ResponseRecorder }

func (brokenWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestWorkerCancelMidPark: cancelling a parked worker returns Run promptly
// (the request is abandoned, not waited out), and a job submitted in that
// very instant is neither lost nor run to completion twice.
func TestWorkerCancelMidPark(t *testing.T) {
	f := newFleet(t, CoordinatorOptions{LeaseTTL: 300 * time.Millisecond})
	expiry, stopExpiry := context.WithCancel(context.Background())
	defer stopExpiry()
	go f.coord.Run(expiry)

	for round := 0; round < 5; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := f.stubWorker(t, ctx, WorkerOptions{Name: "parked", Slots: 1, Poll: time.Hour}, okRunner)
		waitFor(t, "the worker to park", func() bool { return f.count.parked.Load() == 1 })

		var (
			j   *jobs.Job
			err error
			wg  sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err = f.mgr.Submit(jobs.Spec{Workload: "sgemm", Scale: "tiny"})
		}()
		cancel()
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(3 * time.Second):
			t.Fatal("Run did not return promptly after its context was cancelled mid-park")
		}

		// Whoever ended up with the job — the cancelled worker's drain, a
		// requeue of the undelivered grant, or the lease expiring — a second
		// worker guarantees it can finish.
		ctx2, cancel2 := context.WithCancel(context.Background())
		done2 := f.stubWorker(t, ctx2, WorkerOptions{Name: "rescue", Slots: 1, Poll: time.Hour}, okRunner)
		if st := waitTerminal(t, j, 10*time.Second); st != jobs.StateDone {
			t.Fatalf("round %d: job finished %s: %s", round, st, j.Status().Error)
		}
		cancel2()
		<-done2
		evs, _, _ := j.EventsSince(0)
		dones := 0
		for _, e := range evs {
			if e.Type == "state" && e.State == jobs.StateDone {
				dones++
			}
		}
		if dones != 1 {
			t.Errorf("round %d: job has %d done edges, want exactly 1: %+v", round, dones, evs)
		}
		waitFor(t, "every lease request to leave the coordinator", func() bool { return f.count.parked.Load() == 0 })
	}
}

// TestSlotsBoundInFlight: a two-slot worker runs two leased jobs at once and
// never a third.
func TestSlotsBoundInFlight(t *testing.T) {
	f := newFleet(t, CoordinatorOptions{LeaseTTL: 30 * time.Second})
	var running, peak atomic.Int64
	run := func(ctx context.Context, j *jobs.Job) (json.RawMessage, error) {
		n := running.Add(1)
		defer running.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		return json.RawMessage(`{}`), nil
	}
	var batch []*jobs.Job
	for i := 0; i < 8; i++ {
		batch = append(batch, f.submit(t))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := f.stubWorker(t, ctx, WorkerOptions{Name: "w1", Slots: 2, Poll: time.Hour}, run)
	for _, j := range batch {
		if st := waitTerminal(t, j, 10*time.Second); st != jobs.StateDone {
			t.Fatalf("job %s finished %s: %s", j.ID, st, j.Status().Error)
		}
	}
	if p := peak.Load(); p != 2 {
		t.Errorf("peak concurrent leased jobs = %d, want exactly the 2 slots", p)
	}
	cancel()
	<-done
}

// TestSameTenantLeasesFillTheSlots: a worker's local manager set up the way
// cmd/mosaicd sets a worker up — no tenant quota, a queue as deep as the
// slots — takes both of a tenant's leases while the first is still running
// (one local simulation at a time, so the second waits in the local queue),
// and both finish on their first attempt. The tenant's quota is the
// coordinator's to enforce: there a third submission sheds.
func TestSameTenantLeasesFillTheSlots(t *testing.T) {
	coordMgr := jobs.NewManager(jobs.Options{Workers: -1, QueueDepth: 32, TenantQuota: 2})
	srv := httptest.NewServer(NewCoordinator(coordMgr, CoordinatorOptions{LeaseTTL: 30 * time.Second}))
	t.Cleanup(func() {
		shutdown(t, coordMgr)
		srv.Close()
	})
	spec := jobs.Spec{Workload: "sgemm", Scale: "tiny", Tenant: "acme"}
	var batch []*jobs.Job
	for i := 0; i < 2; i++ {
		j, err := coordMgr.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, j)
	}
	if _, err := coordMgr.Submit(spec); !errors.Is(err, jobs.ErrTenantQuota) {
		t.Fatalf("third submission at the coordinator: err = %v, want the tenant quota", err)
	}

	release := make(chan struct{})
	local := jobs.NewManager(jobs.Options{Workers: 1, QueueDepth: 2, Runner: func(ctx context.Context, j *jobs.Job) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`{}`), nil
	}})
	t.Cleanup(func() { shutdown(t, local) })
	w, err := NewWorker(WorkerOptions{Name: "w1", Coordinator: srv.URL, Manager: local, Slots: 2, Poll: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	// Both leases are held by the local manager before either may finish.
	waitFor(t, "both leases admitted locally", func() bool {
		qs := local.QueueStats()
		return qs.Depth+qs.Running == 2
	})
	close(release)
	for _, j := range batch {
		if st := waitTerminal(t, j, 10*time.Second); st != jobs.StateDone {
			t.Fatalf("job %s finished %s: %s", j.ID, st, j.Status().Error)
		}
		if a := j.Status().Attempts; a != 1 {
			t.Errorf("job %s took %d attempts, want 1", j.ID, a)
		}
	}
	cancel()
	<-done
}

// TestIdleWorkerDoesNotSpin counts lease requests over one idle second: at
// most one per hold while the coordinator parks them, and at most one per
// Poll once it is draining and answers 204 at once.
func TestIdleWorkerDoesNotSpin(t *testing.T) {
	f := newFleet(t, CoordinatorOptions{LeaseTTL: 30 * time.Second, Heartbeat: 250 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := f.stubWorker(t, ctx, WorkerOptions{Name: "w1", Slots: 2, Poll: 250 * time.Millisecond}, okRunner)
	waitFor(t, "the idle worker to park", func() bool { return f.count.parked.Load() == 1 })

	before := f.count.arrived.Load()
	time.Sleep(time.Second)
	if n := f.count.arrived.Load() - before; n < 2 || n > 5 {
		t.Errorf("idle worker made %d lease requests in 1s with a 250ms hold, want about 4", n)
	}

	shutdown(t, f.mgr)
	before = f.count.arrived.Load()
	time.Sleep(time.Second)
	if n := f.count.arrived.Load() - before; n > 6 {
		t.Errorf("worker made %d lease requests in 1s against a draining coordinator, want one per 250ms Poll", n)
	}
	cancel()
	<-done
}

// TestEventBatchAppendsInOrder: one events request appends its whole batch in
// order, re-stamped into the job's single total order, and the single-event
// form of older workers still lands.
func TestEventBatchAppendsInOrder(t *testing.T) {
	f := newFleet(t, CoordinatorOptions{LeaseTTL: 30 * time.Second})
	j := f.submit(t)
	var lease jobs.Lease
	if code := postJSON(t, f.srv.URL+"/cluster/v1/lease", LeaseRequest{Name: "w"}, &lease); code != http.StatusOK {
		t.Fatalf("lease status %d", code)
	}
	url := f.srv.URL + "/cluster/v1/jobs/" + j.ID + "/events"
	hit := true
	batch := []jobs.Event{
		{Seq: 99, Type: "stage", Stage: "artifact", CacheHit: &hit, Seconds: 0.5},
		{Seq: 98, Type: "progress", Cycle: 10},
		{Seq: 97, Type: "stage", Stage: "run", Seconds: 1.5, Cycle: 20},
	}
	if code := postJSON(t, url, EventRequest{Name: "w", Events: batch}, nil); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if code := postJSON(t, url, EventRequest{Name: "w", Event: &jobs.Event{Type: "progress", Cycle: 30, Final: true}}, nil); code != http.StatusOK {
		t.Fatalf("single-event status %d", code)
	}
	evs, _, _ := j.EventsSince(2) // after the queued and running edges
	want := []string{"stage/artifact", "progress/", "stage/run", "progress/"}
	if len(evs) != len(want) {
		t.Fatalf("forwarded events = %+v, want %d of them", evs, len(want))
	}
	for i, e := range evs {
		if got := e.Type + "/" + e.Stage; got != want[i] || e.Seq != i+2 {
			t.Errorf("event %d = %s seq %d, want %s seq %d", i, got, e.Seq, want[i], i+2)
		}
	}
	if !evs[3].Final || evs[3].Cycle != 30 {
		t.Errorf("single-event form lost its payload: %+v", evs[3])
	}
	expectMetric(t, f.mgr, `mosaicd_stage_seconds_count{stage="artifact"} 1`)
	expectMetric(t, f.mgr, `mosaicd_stage_seconds_sum{stage="run"} 1.5`)
	postJSON(t, f.srv.URL+"/cluster/v1/jobs/"+j.ID+"/complete", CompleteRequest{Name: "w", Report: json.RawMessage(`{}`)}, nil)
}
