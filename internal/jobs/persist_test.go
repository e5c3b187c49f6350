package jobs

import (
	"context"
	"encoding/json"
	"fmt"
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
	m := standalone(t, Options{QueueDepth: 8, Store: st}, ExecOptions{Runner: blockingRunner(started, release)}, 1)

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
	wantReport1 := string(j1.Status().Report)
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
	m2 := standalone(t, Options{QueueDepth: 8, Store: st2}, ExecOptions{
		Runner: func(ctx context.Context, l *Lease, emit func(Event)) (json.RawMessage, error) {
			return resumedReport, nil
		}}, 1)
	defer shutdown(t, m2) // before the store closes

	// j1: recovered terminal, report and event stream byte-identical.
	r1, err := m2.Get(j1.ID)
	if err != nil {
		t.Fatalf("done job lost across restart: %v", err)
	}
	if r1.State() != StateDone {
		t.Fatalf("recovered j1 state = %s, want done", r1.State())
	}
	if got := string(r1.Status().Report); got != wantReport1 {
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
		if got := string(rj.Status().Report); got != string(resumedReport) {
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
	m := standalone(t, Options{Store: st}, ExecOptions{Runner: blockingRunner(started, release)}, 1)
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
	m2 := standalone(t, Options{Store: st2}, ExecOptions{Runner: blockingRunner(nil, make(chan struct{}))}, 1)
	defer shutdown(t, m2) // before the store closes
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

// parentStore is a data directory's jobs half exactly as the standalone
// daemon built from d57d123 — the last commit whose manager ran jobs on its
// own worker pool — left it at a SIGKILL: two done jobs, one cancelled
// mid-run, one running and one queued. Its running edges carry no worker or
// attempt, and its cancelled job carries the run's own error.
const parentStore = "testdata/store_d57d123"

// TestParentBuildStoreRecovers: this build opens that directory, serves the
// terminal jobs' reports and event logs byte for byte as the files hold
// them, and resumes the two live jobs through leases — the interrupted one's
// log keeps its old prefix untouched and continues with the requeue edge.
func TestParentBuildStoreRecovers(t *testing.T) {
	// A copy: resuming the live jobs appends to their logs.
	dir := t.TempDir()
	err := filepath.WalkDir(parentStore, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(parentStore, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	// What the files held before this build touched them, by job ID.
	type onDisk struct{ events, report string }
	disk := map[string]onDisk{}
	recs, err := filepath.Glob(filepath.Join(dir, "jobs", "*", "job.json"))
	if err != nil || len(recs) != 5 {
		t.Fatalf("testdata holds %d job records (%v), want 5", len(recs), err)
	}
	for _, rec := range recs {
		var r store.JobRecord
		raw, err := os.ReadFile(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		evs, err := os.ReadFile(filepath.Join(filepath.Dir(rec), "events.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		rep, _ := os.ReadFile(filepath.Join(filepath.Dir(rec), "report.json")) // done jobs only
		disk[r.ID] = onDisk{string(evs), string(rep)}
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	resumed := json.RawMessage(`{"resumed":true}`)
	m := standalone(t, Options{Store: st}, ExecOptions{
		Runner: func(ctx context.Context, l *Lease, emit func(Event)) (json.RawMessage, error) {
			return resumed, nil
		}}, 1)
	defer shutdown(t, m) // before the store closes

	for id, want := range map[string]State{"j000001": StateDone, "j000002": StateDone, "j000003": StateCancelled} {
		j, err := m.Get(id)
		if err != nil {
			t.Fatalf("%s lost: %v", id, err)
		}
		evs, _, done := j.EventsSince(0)
		if j.State() != want || !done {
			t.Errorf("%s recovered %s (stream done %v), want %s", id, j.State(), done, want)
		}
		if got := marshalEvents(t, evs); got != disk[id].events {
			t.Errorf("%s event log not byte-identical:\n got %s\nwant %s", id, got, disk[id].events)
		}
		if got := string(j.Status().Report); got != disk[id].report {
			t.Errorf("%s report not byte-identical:\n got %s\nwant %s", id, got, disk[id].report)
		}
	}
	if e := func() string { j, _ := m.Get("j000003"); return j.Status().Error }(); !strings.Contains(e, "context canceled") {
		t.Errorf("cancelled job's error = %q, want the parent's run error", e)
	}

	for id, attempts := range map[string]int{"j000004": 2, "j000005": 1} {
		j, err := m.Get(id)
		if err != nil {
			t.Fatalf("%s lost: %v", id, err)
		}
		if s := waitTerminal(t, j, 5*time.Second); s != StateDone || string(j.Status().Report) != string(resumed) {
			t.Fatalf("%s resumed to %s %s: %s", id, s, j.Status().Report, j.Status().Error)
		}
		if a := j.Status().Attempts; a != attempts {
			t.Errorf("%s attempts = %d, want %d", id, a, attempts)
		}
		evs, _, _ := j.EventsSince(0)
		log := marshalEvents(t, evs)
		if !strings.HasPrefix(log, disk[id].events) {
			t.Errorf("%s log lost its pre-restart prefix:\n got %s\nwant prefix %s", id, log, disk[id].events)
		}
		tail := strings.TrimPrefix(log, disk[id].events)
		if id == "j000004" && !strings.Contains(tail, `"state":"queued","error":"requeued after restart"`) {
			t.Errorf("interrupted job's log does not explain the rerun: %s", tail)
		}
		if !strings.Contains(tail, fmt.Sprintf(`"state":"running","worker":"local","attempt":%d`, attempts)) {
			t.Errorf("%s was not resumed through a lease: %s", id, tail)
		}
	}
	// IDs continue past the recovered ones.
	j6, err := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"})
	if err != nil || j6.ID != "j000006" {
		t.Fatalf("post-recovery submission = %v, %v; want j000006", j6, err)
	}
}

// TestRemovedOptSpellings: the O1 level and the constfold and dce passes are
// gone. A submission that names one is refused with the levels and passes
// that exist. A store an older build wrote with such a job queued recovers
// with that job failed for the same reason, through the runner's own
// Normalize, while every other job stays as it was and the manager serves on.
func TestRemovedOptSpellings(t *testing.T) {
	removed := []struct {
		key, value, want string
	}{
		{"opt", "O1", "(have O0, O2)"},
		{"passes", "constfold,dce", "(have cse, strength, unroll)"},
	}
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan string, 4)
	release := make(chan struct{}, 4)
	m := standalone(t, Options{QueueDepth: 8, Store: st}, ExecOptions{Runner: blockingRunner(started, release)}, 1)
	for _, r := range removed {
		var spec Spec
		if err := json.Unmarshal([]byte(`{"workload":"sgemm","`+r.key+`":"`+r.value+`"}`), &spec); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Submit(spec); err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("submitting %s %q: %v, want a refusal naming %s", r.key, r.value, err, r.want)
		}
	}

	done, err := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	release <- struct{}{}
	if s := waitTerminal(t, done, 5*time.Second); s != StateDone {
		t.Fatalf("job finished %s", s)
	}
	evs, _, _ := done.EventsSince(0)
	wantLog, wantReport := marshalEvents(t, evs), string(done.Status().Report)
	running, err := m.Submit(Spec{Workload: "spmv", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// Queued behind it: two jobs an older build admitted, and one this build
	// still runs.
	var old []*Job
	for range removed {
		j, err := m.Submit(Spec{Workload: "sgemm", Scale: "tiny", Opt: "O2"})
		if err != nil {
			t.Fatal(err)
		}
		old = append(old, j)
	}
	queued, err := m.Submit(Spec{Workload: "bfs", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // the crash
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_ = m.Shutdown(ctx)
	cancel()
	for i, r := range removed {
		editPersistedSpec(t, filepath.Join(dir, "jobs", old[i].digest, "job.json"), func(spec map[string]json.RawMessage) {
			delete(spec, "opt")
			spec[r.key], _ = json.Marshal(r.value)
		})
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2 := standalone(t, Options{QueueDepth: 8, Store: st2}, ExecOptions{}, 1)
	defer shutdown(t, m2) // before the store closes
	get := func(id string) *Job {
		j, err := m2.Get(id)
		if err != nil {
			t.Fatalf("job %s lost across the restart: %v", id, err)
		}
		return j
	}
	for i, r := range removed {
		j := get(old[i].ID)
		if s := waitTerminal(t, j, 30*time.Second); s != StateFailed || !strings.Contains(j.Status().Error, r.want) {
			t.Errorf("queued job with %s %q ended %s (%q), want failed naming %s", r.key, r.value, s, j.Status().Error, r.want)
		}
	}
	r := get(done.ID)
	if revs, _, _ := r.EventsSince(0); r.State() != StateDone || string(r.Status().Report) != wantReport || marshalEvents(t, revs) != wantLog {
		t.Errorf("the done job changed across the restart: %s", r.Status().Error)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if j := get(id); waitTerminal(t, j, 30*time.Second) != StateDone {
			t.Errorf("job %s ended %s: %s", id, j.State(), j.Status().Error)
		}
	}
	after, err := m2.Submit(Spec{Workload: "sgemm", Scale: "tiny", Opt: "O2"})
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, after, 30*time.Second); s != StateDone {
		t.Fatalf("a submission after the restart ended %s: %s", s, after.Status().Error)
	}
}
