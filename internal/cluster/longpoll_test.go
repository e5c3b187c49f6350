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
	f := &fleet{mgr: jobs.NewManager(jobs.Options{QueueDepth: 32})}
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
	opts.Coordinator, opts.Executor = f.srv.URL, jobs.NewExecutor(jobs.ExecOptions{Runner: run})
	w, err := NewWorker(opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	return done
}

func okRunner(ctx context.Context, l *jobs.Lease, emit func(jobs.Event)) (json.RawMessage, error) {
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
	run := func(ctx context.Context, l *jobs.Lease, emit func(jobs.Event)) (json.RawMessage, error) {
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

// TestSameTenantLeasesFillTheSlots: a two-slot worker takes both of a
// tenant's leases while the first is still running, and both finish on their
// first attempt — a worker has no admission of its own to shed a job its
// coordinator already admitted. The tenant's quota is the coordinator's to
// enforce: there a third submission sheds.
func TestSameTenantLeasesFillTheSlots(t *testing.T) {
	coordMgr := jobs.NewManager(jobs.Options{QueueDepth: 32, TenantQuota: 2})
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
	x := jobs.NewExecutor(jobs.ExecOptions{Runner: func(ctx context.Context, l *jobs.Lease, emit func(jobs.Event)) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`{}`), nil
	}})
	w, err := NewWorker(WorkerOptions{Name: "w1", Coordinator: srv.URL, Executor: x, Slots: 2, Poll: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	// Both leases are held and running before either may finish.
	waitFor(t, "both leases running on the worker", func() bool { return x.QueueStats().Running == 2 })
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

// TestLostLeaseFreesItsSlotAtOnce: with the lease TTL an hour the next
// heartbeat is twenty minutes off, so the only prompt way a worker can learn
// that a long job was cancelled is the 409 the coordinator answers its next
// forwarded event with. That must abort the run, free the slot, and start
// the next queued job on it — in well under half a second.
func TestLostLeaseFreesItsSlotAtOnce(t *testing.T) {
	f := newFleet(t, CoordinatorOptions{LeaseTTL: time.Hour})
	started := make(chan string, 2)
	run := func(ctx context.Context, l *jobs.Lease, emit func(jobs.Event)) (json.RawMessage, error) {
		started <- l.JobID
		if l.Spec.Workload != "sgemm" {
			return json.RawMessage(`{}`), nil
		}
		// A long simulation: a progress tick now and then, until aborted.
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for cycle := int64(1); ; cycle++ {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-tick.C:
				emit(jobs.Event{Type: "progress", Cycle: cycle})
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := f.stubWorker(t, ctx, WorkerOptions{Name: "w1", Slots: 1, Poll: time.Hour}, run)

	long := f.submit(t)
	<-started
	next, err := f.mgr.Submit(jobs.Spec{Workload: "spmv", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if _, err := f.mgr.Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-started:
		if d := time.Since(t0); id != next.ID || d > 500*time.Millisecond {
			t.Errorf("%s started %v after the cancel, want %s within 500ms", id, d, next.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cancelled job kept its worker slot: the 409 on its events did not abort the run")
	}
	if st := waitTerminal(t, next, 5*time.Second); st != jobs.StateDone {
		t.Errorf("next job finished %s: %s", st, next.Status().Error)
	}
	if st := long.Status(); st.State != jobs.StateCancelled {
		t.Errorf("cancelled job is %s", st.State)
	}
	cancel()
	<-done
}

// TestWorkerRegrantedItsOwnRunningJob: a job whose lease lapses while a
// two-slot worker is still running it requeues, and the requeue wakes that
// same worker's parked request — so the worker holds two leases on one job
// ID at once (a coordinator restarted under a running lease does the same).
// The runs must stay apart: both unwind, the job ends done exactly once, and
// nothing the first run's completion tears down belongs to the second.
func TestWorkerRegrantedItsOwnRunningJob(t *testing.T) {
	f := newFleet(t, CoordinatorOptions{LeaseTTL: 30 * time.Second})
	started := make(chan int, 2)
	release := make(chan struct{})
	run := func(ctx context.Context, l *jobs.Lease, emit func(jobs.Event)) (json.RawMessage, error) {
		started <- l.Attempt
		<-release
		emit(jobs.Event{Type: "progress", Cycle: 1})
		emit(jobs.Event{Type: "stage", Stage: "run", Seconds: 0.25})
		return json.RawMessage(`{"ok":true}`), nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := f.stubWorker(t, ctx, WorkerOptions{Name: "w1", Slots: 2, Poll: time.Hour}, run)

	j := f.submit(t)
	if a := <-started; a != 1 {
		t.Fatalf("first run is attempt %d", a)
	}
	waitFor(t, "the second slot to park a lease request", func() bool { return f.count.parked.Load() == 1 })
	f.mgr.ExpireLeases(time.Now().Add(time.Minute))
	select {
	case a := <-started:
		if a != 2 {
			t.Fatalf("second run is attempt %d", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the requeued job was not granted to the worker's free slot")
	}
	close(release)
	if st := waitTerminal(t, j, 5*time.Second); st != jobs.StateDone {
		t.Fatalf("job finished %s: %s", st, j.Status().Error)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) { // both runs unwound
		t.Errorf("Run returned %v, want context.Canceled", err)
	}
	if st := j.Status(); st.Attempts != 2 || st.Worker != "w1" || string(st.Report) != `{"ok":true}` {
		t.Errorf("status = %+v, want attempt 2 on w1 with the stub's report", st)
	}
	expectMetric(t, f.mgr, `mosaicd_jobs_total{state="done"} 1`)
	expectMetric(t, f.mgr, "mosaicd_leases_active 0")
	expectMetric(t, f.mgr, "mosaicd_leases_expired_total 1")
}

// TestProgressTicksNeverWaitForTheNetwork: with the coordinator holding every
// events request, a run's progress ticks overflow the forwarder's buffer and
// are dropped — the simulating goroutine is not stalled behind the network —
// while its stage events wait their turn and all arrive.
func TestProgressTicksNeverWaitForTheNetwork(t *testing.T) {
	mgr := jobs.NewManager(jobs.Options{})
	coord := NewCoordinator(mgr, CoordinatorOptions{LeaseTTL: 30 * time.Second})
	hold := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			<-hold
		}
		coord.ServeHTTP(w, r)
	}))
	defer srv.Close()
	defer shutdown(t, mgr)
	ticked := make(chan struct{})
	x := jobs.NewExecutor(jobs.ExecOptions{Runner: func(ctx context.Context, l *jobs.Lease, emit func(jobs.Event)) (json.RawMessage, error) {
		for c := int64(1); c <= 1000; c++ {
			emit(jobs.Event{Type: "progress", Cycle: c})
		}
		close(ticked)
		<-hold
		emit(jobs.Event{Type: "stage", Stage: "run", Seconds: 0.5})
		emit(jobs.Event{Type: "progress", Cycle: 1001, Final: true})
		return json.RawMessage(`{}`), nil
	}})
	w, err := NewWorker(WorkerOptions{Name: "w1", Coordinator: srv.URL, Executor: x, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)
	j, err := mgr.Submit(jobs.Spec{Workload: "sgemm", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ticked:
	case <-time.After(2 * time.Second):
		t.Fatal("the run is stalled behind a coordinator that is not answering its event posts")
	}
	close(hold)
	if st := waitTerminal(t, j, 5*time.Second); st != jobs.StateDone {
		t.Fatalf("job finished %s: %s", st, j.Status().Error)
	}
	evs, _, _ := j.EventsSince(0)
	last := evs[len(evs)-2] // before the done edge
	if n := len(evs); n > 200 || last.Cycle != 1001 || !last.Final || evs[n-3].Stage != "run" {
		t.Errorf("log has %d events ending %+v, %+v: want most ticks dropped, the stage event and the final tick kept", n, evs[n-3], last)
	}
}
