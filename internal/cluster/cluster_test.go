package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mosaicsim/internal/jobs"
	"mosaicsim/internal/sim"
)

// waitTerminal blocks until the coordinator-side job is terminal, driven by
// its event stream.
func waitTerminal(t *testing.T, j *jobs.Job, timeout time.Duration) jobs.State {
	t.Helper()
	deadline := time.After(timeout)
	next := 0
	for {
		evs, more, done := j.EventsSince(next)
		next += len(evs)
		if done {
			return j.State()
		}
		select {
		case <-more:
		case <-deadline:
			t.Fatalf("job %s not terminal after %v (state %s)", j.ID, timeout, j.State())
		}
	}
}

func shutdown(t *testing.T, m *jobs.Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// postJSON drives the coordinator's HTTP surface directly, playing a raw
// worker (useful for simulating one that dies: it just stops calling).
func postJSON(t *testing.T, url string, req, resp any) int {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if resp != nil && hr.StatusCode == http.StatusOK {
		if err := json.NewDecoder(hr.Body).Decode(resp); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return hr.StatusCode
}

// TestFleetGoldenSeam is the fleet determinism contract: a job executed by
// a remote worker — leased over HTTP, run on the worker's own executor,
// completed with its report — must be byte-identical to the same spec run
// through sim.Session directly. It also checks the coordinator's event log
// is a single total order: queued first, a running edge naming the worker,
// forwarded stage events, and a terminal done edge.
func TestFleetGoldenSeam(t *testing.T) {
	t.Run("current", func(t *testing.T) {
		fleetGoldenSeam(t, func(h http.Handler) http.Handler { return h })
	})
	// Rolling upgrade: a coordinator from before step_workers was retired
	// still puts it in the lease; the worker must run the job all the same.
	t.Run("lease-with-retired-knob", func(t *testing.T) {
		var rewritten atomic.Int64
		fleetGoldenSeam(t, func(h http.Handler) http.Handler { return retiredKnobLeases(t, h, &rewritten) })
		if rewritten.Load() == 0 {
			t.Error("no lease was rewritten: the leg ran vacuously")
		}
	})
}

// retiredKnobLeases rewrites every granted lease so its spec carries
// "step_workers": 4, as a coordinator built before the knob's removal sends.
func retiredKnobLeases(t *testing.T, next http.Handler, rewritten *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cluster/v1/lease" {
			next.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			var lease, spec map[string]json.RawMessage
			if err := json.Unmarshal(body, &lease); err != nil {
				t.Errorf("lease body: %v", err)
			}
			if err := json.Unmarshal(lease["spec"], &spec); err != nil {
				t.Errorf("lease spec: %v", err)
			}
			spec["step_workers"] = json.RawMessage("4")
			lease["spec"], _ = json.Marshal(spec)
			body, _ = json.Marshal(lease)
			rewritten.Add(1)
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	})
}

// fleetGoldenSeam runs the seam check with the coordinator's HTTP surface
// wrapped by wrap.
func fleetGoldenSeam(t *testing.T, wrap func(http.Handler) http.Handler) {
	coordMgr := jobs.NewManager(jobs.Options{})
	defer shutdown(t, coordMgr)
	coord := NewCoordinator(coordMgr, CoordinatorOptions{LeaseTTL: 2 * time.Second})
	srv := httptest.NewServer(wrap(coord))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go coord.Run(ctx)

	x := jobs.NewExecutor(jobs.ExecOptions{})
	w, err := NewWorker(WorkerOptions{Name: "w1", Coordinator: srv.URL, Executor: x})
	if err != nil {
		t.Fatal(err)
	}
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); _ = w.Run(ctx) }()

	spec := jobs.Spec{Workload: "sgemm", Scale: "tiny"}
	j, err := coordMgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 30*time.Second); st != jobs.StateDone {
		t.Fatalf("fleet job finished %s: %s", st, j.Status().Error)
	}
	got := j.Status().Report

	// The reference: the same spec lowered straight onto a Session.
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := norm.SessionOptions(sim.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("fleet report differs from direct Session run:\n got %s\nwant %s", got, want)
	}

	evs, _, _ := j.EventsSince(0)
	if len(evs) == 0 || evs[0].State != jobs.StateQueued {
		t.Fatalf("first event is not the queued edge: %+v", evs)
	}
	var sawRunning, sawStage, sawDone bool
	for i, e := range evs {
		if e.Seq != i {
			t.Errorf("event %d has seq %d: log is not a single total order", i, e.Seq)
		}
		switch {
		case e.Type == "state" && e.State == jobs.StateRunning:
			sawRunning = true
			if e.Worker != "w1" || e.Attempt != 1 {
				t.Errorf("running edge lacks lease identity: %+v", e)
			}
		case e.Type == "stage":
			sawStage = true
		case e.Type == "state" && e.State == jobs.StateDone:
			sawDone = true
		}
	}
	if !sawRunning || !sawStage || !sawDone {
		t.Errorf("event log missing edges (running %v, stage %v, done %v): %+v",
			sawRunning, sawStage, sawDone, evs)
	}

	// Each series lives where its subject does: execution on the worker
	// (which admitted nothing), admission and leases on the coordinator
	// (which ran nothing); stage latency on both ends of the event forward.
	var wm, cm bytes.Buffer
	x.Registry().WriteText(&wm)
	coordMgr.Registry().WriteText(&cm)
	for _, tc := range []struct {
		series         string
		worker, coordr bool
	}{
		{`mosaicd_stage_seconds_count{stage="run"} 1`, true, true},
		{"mosaicd_jobs_inflight 0", true, false},
		{"mosaicd_cache_misses_total", true, false},
		{`mosaicd_tile_instrs_total{kind="ooo"}`, true, false},
		{"mosaicd_jobs_submitted_total 1", false, true},
		{"mosaicd_queue_depth 0", false, true},
		{"mosaicd_leases_active 0", false, true},
		{"mosaicd_queue_wait_seconds_count 1", false, true},
	} {
		if got := strings.Contains(wm.String(), tc.series); got != tc.worker {
			t.Errorf("worker metrics contain %q = %v, want %v", tc.series, got, tc.worker)
		}
		if got := strings.Contains(cm.String(), tc.series); got != tc.coordr {
			t.Errorf("coordinator metrics contain %q = %v, want %v", tc.series, got, tc.coordr)
		}
	}

	cancel()
	<-workerDone
	expectMetric(t, coordMgr, "mosaicd_fleet_workers 1") // the worker registered
}

// TestLeaseExpiryRequeuesToSecondWorker simulates a worker SIGKILL: w1
// leases a job over raw HTTP and goes silent; the coordinator's expiry scan
// requeues it; a real Worker (w2, stub engine) picks it up as attempt 2 and
// completes it. The dead worker's late completion must be refused.
func TestLeaseExpiryRequeuesToSecondWorker(t *testing.T) {
	coordMgr := jobs.NewManager(jobs.Options{})
	defer shutdown(t, coordMgr)
	coord := NewCoordinator(coordMgr, CoordinatorOptions{LeaseTTL: 60 * time.Millisecond})
	srv := httptest.NewServer(coord)
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go coord.Run(ctx)

	j, err := coordMgr.Submit(jobs.Spec{Workload: "sgemm", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}

	var lease jobs.Lease
	if code := postJSON(t, srv.URL+"/cluster/v1/lease", LeaseRequest{Name: "w1"}, &lease); code != http.StatusOK {
		t.Fatalf("lease status %d", code)
	}
	if lease.JobID != j.ID || lease.Attempt != 1 {
		t.Fatalf("unexpected lease %+v", lease)
	}
	// w1 now "dies": no heartbeat, no completion. The lease must lapse and
	// the job requeue (front of class) within a few TTLs.
	requeued := time.After(2 * time.Second)
	for j.State() != jobs.StateQueued {
		select {
		case <-requeued:
			t.Fatalf("job never requeued after lease expiry (state %s)", j.State())
		case <-time.After(10 * time.Millisecond):
		}
	}

	report := json.RawMessage(`{"ok":true,"attempt":2}`)
	w2, err := NewWorker(WorkerOptions{
		Name: "w2", Coordinator: srv.URL, Executor: jobs.NewExecutor(jobs.ExecOptions{
			Runner: func(ctx context.Context, l *jobs.Lease, emit func(jobs.Event)) (json.RawMessage, error) {
				return report, nil
			}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	w2Done := make(chan struct{})
	go func() { defer close(w2Done); _ = w2.Run(ctx) }()

	if st := waitTerminal(t, j, 10*time.Second); st != jobs.StateDone {
		t.Fatalf("requeued job finished %s: %s", st, j.Status().Error)
	}
	st := j.Status()
	if st.Attempts != 2 || st.Worker != "w2" {
		t.Errorf("status after requeue = attempts %d worker %q, want 2 on w2", st.Attempts, st.Worker)
	}
	if string(st.Report) != string(report) {
		t.Errorf("report = %s, want %s", st.Report, report)
	}

	// The affinity hash of the executed job must now ride w2's leases.
	if len(w2.Affinity()) != 1 {
		t.Errorf("w2 affinity set = %v, want one hash", w2.Affinity())
	}

	// w1 rises from the dead: its completion must bounce with 409.
	code := postJSON(t, srv.URL+"/cluster/v1/jobs/"+j.ID+"/complete",
		CompleteRequest{Name: "w1", Report: json.RawMessage(`{"stale":true}`)}, nil)
	if code != http.StatusConflict {
		t.Errorf("stale completion status = %d, want 409", code)
	}
	if string(j.Status().Report) != string(report) {
		t.Errorf("stale completion overwrote the report: %s", j.Status().Report)
	}

	cancel()
	<-w2Done
}

// TestLeaseAffinityPreference: a worker advertising the affinity hash of a
// deeper-queued job receives that job, not the front of the queue — and a
// worker with no affinity steals the front as usual.
func TestLeaseAffinityPreference(t *testing.T) {
	coordMgr := jobs.NewManager(jobs.Options{})
	defer shutdown(t, coordMgr)
	coord := NewCoordinator(coordMgr, CoordinatorOptions{LeaseTTL: time.Second})
	srv := httptest.NewServer(coord)
	defer srv.Close()

	specA := jobs.Spec{Workload: "sgemm", Scale: "tiny"}
	specB := jobs.Spec{Workload: "spmv", Scale: "tiny"}
	if _, err := coordMgr.Submit(specA); err != nil {
		t.Fatal(err)
	}
	jb, err := coordMgr.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	normB, err := specB.Normalize()
	if err != nil {
		t.Fatal(err)
	}

	var warm jobs.Lease
	code := postJSON(t, srv.URL+"/cluster/v1/lease",
		LeaseRequest{Name: "warm", Affinity: []uint64{normB.AffinityHash()}}, &warm)
	if code != http.StatusOK {
		t.Fatalf("lease status %d", code)
	}
	if warm.JobID != jb.ID {
		t.Errorf("affine worker got %s (%s), want the matching job %s",
			warm.JobID, warm.Spec.Workload, jb.ID)
	}
	if warm.Affinity != normB.AffinityHash() {
		t.Errorf("lease affinity %d != spec hash %d", warm.Affinity, normB.AffinityHash())
	}

	var cold jobs.Lease
	code = postJSON(t, srv.URL+"/cluster/v1/lease", LeaseRequest{Name: "cold"}, &cold)
	if code != http.StatusOK {
		t.Fatalf("second lease status %d", code)
	}
	if cold.Spec.Workload != "sgemm" {
		t.Errorf("cold worker stole %q, want the queue front sgemm", cold.Spec.Workload)
	}

	if code := postJSON(t, srv.URL+"/cluster/v1/lease", LeaseRequest{Name: "cold"}, nil); code != http.StatusNoContent {
		t.Errorf("empty-queue lease status = %d, want 204", code)
	}

	// Unwind both leases so shutdown drains cleanly.
	postJSON(t, srv.URL+"/cluster/v1/jobs/"+warm.JobID+"/complete",
		CompleteRequest{Name: "warm", Report: json.RawMessage(`{}`)}, nil)
	postJSON(t, srv.URL+"/cluster/v1/jobs/"+cold.JobID+"/complete",
		CompleteRequest{Name: "cold", Report: json.RawMessage(`{}`)}, nil)
}

// TestHeartbeatReportsLostLeases: a heartbeat renewing a lease the worker no
// longer holds — here because a client cancelled the job — reports it lost,
// which is all a worker needs to abort the run. (Cancels stays in the wire
// type for coordinators built before cancels and losses were one answer.)
func TestHeartbeatReportsLostLeases(t *testing.T) {
	coordMgr := jobs.NewManager(jobs.Options{})
	defer shutdown(t, coordMgr)
	coord := NewCoordinator(coordMgr, CoordinatorOptions{LeaseTTL: time.Second})
	srv := httptest.NewServer(coord)
	defer srv.Close()

	j, err := coordMgr.Submit(jobs.Spec{Workload: "sgemm", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	var lease jobs.Lease
	if code := postJSON(t, srv.URL+"/cluster/v1/lease", LeaseRequest{Name: "w1"}, &lease); code != http.StatusOK {
		t.Fatalf("lease status %d", code)
	}

	// Heartbeat renews while the lease is held: nothing lost, no cancels.
	var hb HeartbeatResponse
	postJSON(t, srv.URL+"/cluster/v1/heartbeat", HeartbeatRequest{Name: "w1", Running: []string{j.ID}}, &hb)
	if len(hb.Cancels) != 0 || len(hb.Lost) != 0 {
		t.Fatalf("clean heartbeat returned %+v", hb)
	}

	if _, err := coordMgr.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	postJSON(t, srv.URL+"/cluster/v1/heartbeat", HeartbeatRequest{Name: "w1", Running: []string{j.ID}}, &hb)
	if len(hb.Lost) != 1 || hb.Lost[0] != j.ID {
		t.Errorf("cancelled lease not reported lost: %+v", hb)
	}
	if st := j.State(); st != jobs.StateCancelled {
		t.Errorf("job state = %s, want cancelled", st)
	}

	// Forwarding an event for a lost lease is refused with 409, and workers
	// may never emit lifecycle edges at all.
	code := postJSON(t, srv.URL+"/cluster/v1/jobs/"+j.ID+"/events",
		EventRequest{Name: "w1", Events: []jobs.Event{{Type: "progress", Cycle: 1}}}, nil)
	if code != http.StatusConflict {
		t.Errorf("event for lost lease status = %d, want 409", code)
	}
	code = postJSON(t, srv.URL+"/cluster/v1/jobs/"+j.ID+"/events",
		EventRequest{Name: "w1", Events: []jobs.Event{{Type: "progress", Cycle: 1}, {Type: "state", State: jobs.StateDone}}}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("lifecycle edge from worker status = %d, want 400", code)
	}
}

// TestWorkerRegisterTimingContract: register hands back the coordinator's
// lease TTL and heartbeat interval, and an unnamed worker is refused.
func TestWorkerRegisterTimingContract(t *testing.T) {
	coordMgr := jobs.NewManager(jobs.Options{})
	defer shutdown(t, coordMgr)
	coord := NewCoordinator(coordMgr, CoordinatorOptions{LeaseTTL: 12 * time.Second})
	srv := httptest.NewServer(coord)
	defer srv.Close()

	var resp RegisterResponse
	code := postJSON(t, srv.URL+"/cluster/v1/register", RegisterRequest{Name: "w1", Slots: 2}, &resp)
	if code != http.StatusOK {
		t.Fatalf("register status %d", code)
	}
	if resp.LeaseTTL != 12*time.Second || resp.HeartbeatEvery != 4*time.Second {
		t.Errorf("timing contract = %+v, want 12s TTL / 4s heartbeat", resp)
	}
	expectMetric(t, coordMgr, "mosaicd_fleet_workers 1")
	if code := postJSON(t, srv.URL+"/cluster/v1/register", RegisterRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("unnamed register status = %d, want 400", code)
	}
}

// TestTwoWorkersSplitTheQueue runs a small batch across two stub-engine
// workers and checks every job completes exactly once with its own report —
// the work-stealing path under real concurrency (meaningful under -race).
func TestTwoWorkersSplitTheQueue(t *testing.T) {
	coordMgr := jobs.NewManager(jobs.Options{QueueDepth: 32})
	defer shutdown(t, coordMgr)
	coord := NewCoordinator(coordMgr, CoordinatorOptions{LeaseTTL: 2 * time.Second})
	srv := httptest.NewServer(coord)
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go coord.Run(ctx)

	mkWorker := func(name string) *Worker {
		x := jobs.NewExecutor(jobs.ExecOptions{
			Runner: func(ctx context.Context, l *jobs.Lease, emit func(jobs.Event)) (json.RawMessage, error) {
				return json.RawMessage(fmt.Sprintf(`{"by":%q,"workload":%q}`, name, l.Spec.Workload)), nil
			}})
		w, err := NewWorker(WorkerOptions{
			Name: name, Coordinator: srv.URL, Executor: x, Slots: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w1, w2 := mkWorker("w1"), mkWorker("w2")
	d1, d2 := make(chan struct{}), make(chan struct{})
	go func() { defer close(d1); _ = w1.Run(ctx) }()
	go func() { defer close(d2); _ = w2.Run(ctx) }()

	var batch []*jobs.Job
	for i := 0; i < 8; i++ {
		j, err := coordMgr.Submit(jobs.Spec{Workload: "sgemm", Scale: "tiny"})
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, j)
	}
	for _, j := range batch {
		if st := waitTerminal(t, j, 15*time.Second); st != jobs.StateDone {
			t.Fatalf("job %s finished %s: %s", j.ID, st, j.Status().Error)
		}
		var rep struct{ By, Workload string }
		if err := json.Unmarshal(j.Status().Report, &rep); err != nil {
			t.Fatalf("job %s report %s: %v", j.ID, j.Status().Report, err)
		}
		if rep.By != "w1" && rep.By != "w2" {
			t.Errorf("job %s completed by %q", j.ID, rep.By)
		}
	}
	// Every lease grant observed its job's submitted → started wait.
	expectMetric(t, coordMgr, "mosaicd_queue_wait_seconds_count 8")
	cancel()
	<-d1
	<-d2
}
