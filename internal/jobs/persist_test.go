package jobs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mosaicsim/internal/store"
)

// marshalEvents re-serializes a served event stream the way the API and the
// persisted log do — one JSON line per event — so byte-identity across a
// restart can be asserted on the whole stream at once.
func marshalEvents(t *testing.T, evs []Event) string {
	t.Helper()
	var sb strings.Builder
	for _, e := range evs {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestCrashRestartResume is the durability contract of the job store: kill
// the manager with work in flight (simulated by closing the store out from
// under it, so nothing terminal persists — exactly what SIGKILL leaves),
// reopen the same data directory, and the done job replays byte-identically
// while the interrupted and queued jobs resume and complete.
func TestCrashRestartResume(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan string, 4)
	release := make(chan struct{}, 4)
	m := NewManager(Options{Workers: 1, QueueDepth: 8,
		Runner: blockingRunner(started, release), Store: st})

	j1, err := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // j1 running
	j2, err := m.Submit(Spec{Workload: "spmv", Scale: "tiny", Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	j3, err := m.Submit(Spec{Workload: "bfs", Scale: "tiny", Priority: PriorityHigh})
	if err != nil {
		t.Fatal(err)
	}

	release <- struct{}{} // j1 completes cleanly before the crash
	if s := waitTerminal(t, j1, 5*time.Second); s != StateDone {
		t.Fatalf("j1 finished %s", s)
	}
	evs1, _, _ := j1.EventsSince(0)
	wantLog1 := marshalEvents(t, evs1)
	wantReport1 := string(j1.Report())
	// The worker drains by priority: high-class j3 runs next (its running
	// edge persists before the runner starts); normal-class j2 stays queued.
	if id := <-started; id != j3.ID {
		t.Fatalf("worker picked %s next, want the high-priority %s", id, j3.ID)
	}

	// Crash: the store dies first (no terminal event or cancellation below
	// reaches disk), then the manager is torn down with a short deadline so
	// the blocked j2 is force-cancelled in memory only.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_ = m.Shutdown(ctx)
	cancel()

	// Restart against the same directory, with a runner that completes
	// immediately so resumed jobs drain.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	resumedReport := json.RawMessage(`{"resumed":true}`)
	m2 := NewManager(Options{Workers: 1, QueueDepth: 8, Store: st2,
		Runner: func(ctx context.Context, j *Job) (json.RawMessage, error) {
			return resumedReport, nil
		}})
	defer shutdown(t, m2)

	// j1: recovered terminal, report and event stream byte-identical.
	r1, err := m2.Get(j1.ID)
	if err != nil {
		t.Fatalf("done job lost across restart: %v", err)
	}
	if r1.State() != StateDone {
		t.Fatalf("recovered j1 state = %s, want done", r1.State())
	}
	if got := string(r1.Report()); got != wantReport1 {
		t.Errorf("recovered report differs:\n got %s\nwant %s", got, wantReport1)
	}
	revs1, _, done := r1.EventsSince(0)
	if !done {
		t.Error("recovered j1 event stream not terminal")
	}
	if got := marshalEvents(t, revs1); got != wantLog1 {
		t.Errorf("recovered event log not byte-identical:\n got %s\nwant %s", got, wantLog1)
	}

	// j3 (killed mid-run) and j2 (killed while queued) resume and complete.
	for _, id := range []string{j2.ID, j3.ID} {
		rj, err := m2.Get(id)
		if err != nil {
			t.Fatalf("live job %s lost across restart: %v", id, err)
		}
		if s := waitTerminal(t, rj, 5*time.Second); s != StateDone {
			t.Fatalf("resumed job %s finished %s: %s", id, s, rj.Status().Error)
		}
		if got := string(rj.Report()); got != string(resumedReport) {
			t.Errorf("resumed job %s report = %s", id, got)
		}
	}

	// The interrupted job's log records the interruption: queued, running
	// (attempt 1), requeued-after-restart, running again, done — and its
	// attempt counter reflects both executions.
	r3, _ := m2.Get(j3.ID)
	if a := r3.Status().Attempts; a != 2 {
		t.Errorf("j3 attempts = %d, want 2 (one per side of the crash)", a)
	}
	revs3, _, _ := r3.EventsSince(0)
	var sawRequeue bool
	for _, e := range revs3 {
		if e.Type == "state" && e.State == StateQueued && e.Error == "requeued after restart" {
			sawRequeue = true
		}
	}
	if !sawRequeue {
		t.Errorf("j3 log lacks the requeued-after-restart edge: %s", marshalEvents(t, revs3))
	}
	if a := func() int { r2, _ := m2.Get(j2.ID); return r2.Status().Attempts }(); a != 1 {
		t.Errorf("j2 attempts = %d, want 1 (never ran before the crash)", a)
	}

	// Tenant accounting recovered with the live jobs and released as they
	// finished: the tenant can submit again up to its quota.
	// ID allocation continues past recovered jobs instead of colliding.
	j4, err := m2.Submit(Spec{Workload: "sgemm", Scale: "tiny", Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range []string{j1.ID, j2.ID, j3.ID} {
		if j4.ID == old {
			t.Fatalf("post-restart ID %s collides with a recovered job", j4.ID)
		}
	}
	if s := waitTerminal(t, j4, 5*time.Second); s != StateDone {
		t.Fatalf("post-restart submission finished %s", s)
	}
}

// TestRecoveredDoneJobsServeWithoutStore: a restart with no runner activity
// still serves recovered terminal jobs (status, report, full event stream)
// — recovery is read-path complete before any worker does anything.
func TestRecoveredDoneJobsServeWithoutStore(t *testing.T) {
	t.Run("as-written", func(t *testing.T) {
		recoveredDoneJobsServe(t, nil)
	})
	// A data dir the parent commit wrote: its persisted specs may carry the
	// since-retired step_workers knob, and must still recover.
	t.Run("spec-with-retired-knob", func(t *testing.T) {
		recoveredDoneJobsServe(t, func(spec map[string]json.RawMessage) {
			spec["step_workers"] = json.RawMessage("4")
		})
	})
}

// recoveredDoneJobsServe finishes one job, applies editSpec (if any) to its
// persisted spec between the two manager lifetimes, and checks the restart
// serves it in full.
func recoveredDoneJobsServe(t *testing.T, editSpec func(spec map[string]json.RawMessage)) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan string, 1)
	release := make(chan struct{}, 1)
	m := NewManager(Options{Workers: 1, Runner: blockingRunner(started, release), Store: st})
	j, err := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	release <- struct{}{}
	if s := waitTerminal(t, j, 5*time.Second); s != StateDone {
		t.Fatalf("job finished %s", s)
	}
	shutdown(t, m)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if editSpec != nil {
		editPersistedSpec(t, filepath.Join(dir, "jobs", j.digest, "job.json"), editSpec)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2 := NewManager(Options{Workers: 1, Store: st2,
		Runner: blockingRunner(nil, make(chan struct{}))})
	defer shutdown(t, m2)
	r, err := m2.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	st3 := r.Status()
	if st3.State != StateDone || st3.Report == nil || st3.Started == nil || st3.Finished == nil {
		t.Errorf("recovered status incomplete: %+v", st3)
	}
	evs, _, done := r.EventsSince(0)
	if !done || len(evs) < 3 {
		t.Errorf("recovered stream done=%v with %d events", done, len(evs))
	}
}

// editPersistedSpec rewrites the spec inside one job.json in place.
func editPersistedSpec(t *testing.T, recPath string, edit func(spec map[string]json.RawMessage)) {
	t.Helper()
	var rec store.JobRecord
	var spec map[string]json.RawMessage
	raw, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rec.Spec, &spec); err != nil {
		t.Fatal(err)
	}
	edit(spec)
	if rec.Spec, err = json.Marshal(spec); err != nil {
		t.Fatal(err)
	}
	if raw, err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(recPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
