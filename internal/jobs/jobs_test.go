package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mosaicsim/internal/config"
	"mosaicsim/internal/sim"
)

// waitTerminal blocks until the job reaches a terminal state (through its
// own event stream, so the wait is notification-driven, not polling).
func waitTerminal(t *testing.T, j *Job, timeout time.Duration) State {
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

func shutdown(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// standalone wires a manager the way cmd/mosaicd wires the standalone role:
// an in-process executor with the given slots running the manager's leases.
// The test's end drains the manager and waits for the lease loop — and so
// for every run — to return.
func standalone(t *testing.T, opts Options, x ExecOptions, slots int) *Manager {
	t.Helper()
	m := NewManager(opts)
	x.Registry = m.Registry()
	served := make(chan struct{})
	go func() {
		defer close(served)
		NewExecutor(x).Serve(context.Background(), m.Local(), slots)
	}()
	t.Cleanup(func() {
		shutdown(t, m) // a second Shutdown only waits for the first
		<-served
	})
	return m
}

// blockingRunner returns a stub Runner that signals started, then blocks
// until released or its context dies (returning the context error, as the
// sim-backed runner does).
func blockingRunner(started chan<- string, release <-chan struct{}) Runner {
	return func(ctx context.Context, l *Lease, emit func(Event)) (json.RawMessage, error) {
		if started != nil {
			started <- l.JobID
		}
		select {
		case <-release:
			return json.RawMessage(`{"ok":true}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func TestSpecValidationDidYouMean(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{}, "needs a workload"},
		{Spec{Workload: "sgem"}, `did you mean "sgemm"`},
		{Spec{Workload: "sgemm", Scale: "tinny"}, `did you mean "tiny"`},
		{Spec{Workload: "sgemm", Core: "oo"}, `did you mean "ooo"`},
		{Spec{Workload: "sgemm", Mem: "tab3"}, "unknown mem"},
		{Spec{Workload: "sgemm", Slicing: "spdm"}, `did you mean "spmd"`},
		{Spec{Workload: "sgemm", Slicing: "dae", Tiles: 3}, "even tile count"},
		{Spec{Workload: "sgemm", Tiles: -1}, "negative tile count"},
		// An untrusted count is bounded before anything walks it.
		{Spec{Workload: "sgemm", Tiles: 2_000_000_000}, "exceeds the 4096"},
		{Spec{Workload: "sgemm", Topology: &config.SystemConfig{Name: "x", Tiles: []config.TileDef{{Kind: "ooo", Count: 2_000_000_000}}}}, "more than 4096 tiles"},
		{Spec{Workload: "sgemm", Timeout: "bogus"}, "bad timeout"},
	}
	for _, c := range cases {
		if _, err := c.spec.Normalize(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Normalize(%+v) = %v, want error containing %q", c.spec, err, c.want)
		}
	}
	norm, err := Spec{Workload: "sgemm"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Scale != "small" || norm.Tiles != 1 || norm.Core != "ooo" || norm.Mem != "tab2" || norm.Slicing != "spmd" {
		t.Errorf("defaults not filled: %+v", norm)
	}
}

func TestQueueFullShedsWithTypedError(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	m := standalone(t, Options{QueueDepth: 1}, ExecOptions{Runner: blockingRunner(started, release)}, 1)
	defer func() { close(release); shutdown(t, m) }()

	a, err := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // a is running, queue empty
	if _, err := m.Submit(Spec{Workload: "spmv", Scale: "tiny"}); err != nil {
		t.Fatalf("queued submission rejected: %v", err)
	}
	_, err = m.Submit(Spec{Workload: "bfs", Scale: "tiny"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission error = %v, want ErrQueueFull", err)
	}
	if got := m.Registry(); got != nil {
		var sb strings.Builder
		got.WriteText(&sb)
		if !strings.Contains(sb.String(), "mosaicd_jobs_rejected_total 1") {
			t.Errorf("shed not counted:\n%s", sb.String())
		}
	}
	_ = a
}

func TestCancelWhileQueuedNeverRuns(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	var ran atomic.Int32
	runner := func(ctx context.Context, l *Lease, emit func(Event)) (json.RawMessage, error) {
		ran.Add(1)
		return blockingRunner(started, release)(ctx, l, emit)
	}
	m := standalone(t, Options{QueueDepth: 4}, ExecOptions{Runner: runner}, 1)
	defer func() { shutdown(t, m) }()

	a, _ := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"})
	<-started // worker occupied by a
	b, err := m.Submit(Spec{Workload: "spmv", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	if st := b.State(); st != StateCancelled {
		t.Fatalf("cancelled-while-queued state = %s, want cancelled immediately", st)
	}
	close(release) // let a finish; the worker must skip b
	if st := waitTerminal(t, a, 5*time.Second); st != StateDone {
		t.Fatalf("job a state = %s, want done", st)
	}
	// Give the worker a beat to (incorrectly) pick b up if it were going to.
	time.Sleep(20 * time.Millisecond)
	if n := ran.Load(); n != 1 {
		t.Fatalf("runner invoked %d times, want 1 (cancelled-while-queued job ran)", n)
	}
}

func TestCancelWhileRunningUnwindsFast(t *testing.T) {
	started := make(chan string, 1)
	m := standalone(t, Options{QueueDepth: 1}, ExecOptions{Runner: blockingRunner(started, nil)}, 1)
	defer func() { shutdown(t, m) }()

	j, err := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	t0 := time.Now()
	if _, err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, time.Second); st != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st)
	}
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Fatalf("cancel-while-running unwound in %v, want < 100ms", d)
	}
	if e := j.Status().Error; !strings.Contains(e, context.Canceled.Error()) {
		t.Fatalf("job error = %q, want the context error", e)
	}
}

// TestCancelReturnsBeforeStatusSettles pins the one cancel rule: Cancel
// decides at the manager, so when it returns the job is cancelled and the
// run's context is already done — but the run itself unwinds afterwards, and
// only its return frees the executor slot for the next job. (The name is
// from when a standalone cancel settled asynchronously; what races ahead of
// the unwind now is the settled status, not the response.)
func TestCancelReturnsBeforeStatusSettles(t *testing.T) {
	started := make(chan string, 2)
	runCtx := make(chan context.Context, 2)
	unwound := make(chan struct{})
	runner := func(ctx context.Context, l *Lease, emit func(Event)) (json.RawMessage, error) {
		runCtx <- ctx
		started <- l.JobID
		<-ctx.Done()
		<-unwound // a real mid-simulation unwind takes a while
		return nil, ctx.Err()
	}
	m := standalone(t, Options{QueueDepth: 1}, ExecOptions{Runner: runner}, 1)

	j, err := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx := <-runCtx
	next, err := m.Submit(Spec{Workload: "spmv", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.State != StateCancelled || !strings.Contains(st.Error, context.Canceled.Error()) {
		t.Fatalf("status right after Cancel = %s %q, want cancelled with the context error", st.State, st.Error)
	}
	if ctx.Err() == nil {
		t.Fatal("the run's context is still live after Cancel returned")
	}
	select {
	case id := <-started:
		t.Fatalf("%s started while the cancelled run still held the only slot", id)
	case <-time.After(50 * time.Millisecond):
	}
	close(unwound)
	select {
	case id := <-started:
		if id != next.ID {
			t.Fatalf("%s took the freed slot, want %s", id, next.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the slot was never reused after the cancelled run returned")
	}
	if _, err := m.Cancel(next.ID); err != nil {
		t.Fatal(err)
	}
}

func TestPerJobTimeoutFails(t *testing.T) {
	m := standalone(t, Options{QueueDepth: 1}, ExecOptions{Runner: blockingRunner(nil, nil), JobTimeout: 20 * time.Millisecond}, 1)
	defer func() { shutdown(t, m) }()
	j, err := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 5*time.Second); st != StateFailed {
		t.Fatalf("timed-out job state = %s, want failed", st)
	}
	if e := j.Status().Error; !strings.Contains(e, context.DeadlineExceeded.Error()) {
		t.Fatalf("job error = %q, want the deadline error", e)
	}
}

// TestPanickingRunFailsOneJob: a panic inside a run used to take the process
// down from the lease goroutine. It is that job's failure now, and the slot
// goes on to serve the next lease.
func TestPanickingRunFailsOneJob(t *testing.T) {
	runner := func(ctx context.Context, l *Lease, emit func(Event)) (json.RawMessage, error) {
		if l.Spec.Workload == "spmv" {
			panic("core: tile 0 memory trace exhausted at instruction 7")
		}
		return json.RawMessage(`{"ok":true}`), nil
	}
	m := standalone(t, Options{QueueDepth: 2}, ExecOptions{Runner: runner}, 1)
	bad, err := m.Submit(Spec{Workload: "spmv", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	good, err := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, bad, 5*time.Second); st != StateFailed {
		t.Fatalf("panicking job state = %s, want failed", st)
	}
	if e := bad.Status().Error; !strings.Contains(e, "internal error: core: tile 0 memory trace exhausted at instruction 7") {
		t.Errorf("panicking job error = %q, want it to carry the panic as an internal error", e)
	}
	if st := waitTerminal(t, good, 5*time.Second); st != StateDone {
		t.Fatalf("job leased after the panic: state = %s, want done", st)
	}
}

func TestSpecTimeoutCappedByManager(t *testing.T) {
	// The spec asks for a minute; the manager caps at 20ms.
	m := standalone(t, Options{QueueDepth: 1}, ExecOptions{Runner: blockingRunner(nil, nil), JobTimeout: 20 * time.Millisecond}, 1)
	defer func() { shutdown(t, m) }()
	j, err := m.Submit(Spec{Workload: "sgemm", Scale: "tiny", Timeout: "1m"})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 5*time.Second); st != StateFailed {
		t.Fatalf("state = %s, want failed (manager cap must win)", st)
	}
}

func TestShutdownDrainsRunningCancelsQueued(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	m := standalone(t, Options{QueueDepth: 4}, ExecOptions{Runner: blockingRunner(started, release)}, 1)

	running, _ := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"})
	<-started
	queued, _ := m.Submit(Spec{Workload: "spmv", Scale: "tiny"})

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- m.Shutdown(ctx)
	}()
	// Draining: new submissions are rejected with the typed error.
	deadline := time.After(2 * time.Second)
	for {
		if m.QueueStats().Draining {
			break
		}
		select {
		case <-deadline:
			t.Fatal("manager never started draining")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := m.Submit(Spec{Workload: "bfs", Scale: "tiny"}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit while draining = %v, want ErrShuttingDown", err)
	}
	close(release) // running job finishes inside the drain budget
	if err := <-done; err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	if st := running.State(); st != StateDone {
		t.Errorf("running job drained to %s, want done", st)
	}
	if st := queued.State(); st != StateCancelled {
		t.Errorf("queued job drained to %s, want cancelled", st)
	}
}

func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	started := make(chan string, 1)
	m := standalone(t, Options{QueueDepth: 1}, ExecOptions{Runner: blockingRunner(started, nil)}, 1)
	j, _ := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); err == nil {
		t.Fatal("deadline-forced drain returned nil, want error")
	}
	if st := j.State(); st != StateCancelled {
		t.Errorf("in-flight job after forced drain = %s, want cancelled", st)
	}
}

func TestRecordRetentionBound(t *testing.T) {
	release := make(chan struct{})
	close(release)
	m := standalone(t, Options{QueueDepth: 8, MaxJobs: 3}, ExecOptions{Runner: blockingRunner(nil, release)}, 1)
	defer func() { shutdown(t, m) }()
	var last *Job
	for i := 0; i < 6; i++ {
		j, err := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j, 5*time.Second)
		last = j
	}
	if n := len(m.List()); n > 3 {
		t.Fatalf("retained %d job records, want <= 3", n)
	}
	if _, err := m.Get(last.ID); err != nil {
		t.Fatalf("newest job evicted: %v", err)
	}
	if _, err := m.Get("j000001"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest job lookup = %v, want ErrNotFound", err)
	}
}

// TestConcurrentMixedSubmissions is the acceptance-scale integration test:
// >= 32 concurrent submissions of mixed workloads through the real
// sim-backed runner, deduplicated through one shared cache. Run under
// -race in CI.
func TestConcurrentMixedSubmissions(t *testing.T) {
	cache := sim.NewCache()
	cache.SetMaxEntries(64)
	m := standalone(t, Options{QueueDepth: 64}, ExecOptions{Cache: cache}, 4)
	defer func() { shutdown(t, m) }()

	names := []string{"sgemm", "spmv", "bfs"}
	const n = 36
	js := make([]*Job, n)
	for i := 0; i < n; i++ {
		j, err := m.Submit(Spec{Workload: names[i%len(names)], Scale: "tiny", Tiles: 1 + i%2})
		if err != nil {
			t.Fatal(err)
		}
		js[i] = j
	}
	for i, j := range js {
		if st := waitTerminal(t, j, 120*time.Second); st != StateDone {
			t.Fatalf("job %d (%s) state = %s, err = %s", i, j.Spec.Workload, st, j.Status().Error)
		}
		if len(j.Status().Report) == 0 {
			t.Fatalf("job %d has no report", i)
		}
	}
	// 36 submissions over 6 distinct shapes: the shared cache must have
	// deduplicated most artifact builds.
	c := cache.Counters()
	if c.Hits == 0 {
		t.Fatalf("cache hits = 0 over %d identical-shape submissions; dedup broken (misses %d)", n, c.Misses)
	}
	// Identical submissions must produce byte-identical reports.
	byShape := map[string]json.RawMessage{}
	for _, j := range js {
		key := fmt.Sprintf("%s/%d", j.Spec.Workload, j.Spec.Tiles)
		if prev, ok := byShape[key]; ok {
			if string(prev) != string(j.Status().Report) {
				t.Fatalf("reports for identical submissions %s differ", key)
			}
		} else {
			byShape[key] = j.Status().Report
		}
	}
}

// TestSimRunnerEmitsStageEvents checks the event stream a real job
// produces: lifecycle edges, the three stages with cache attribution, and
// that a repeat submission reports the artifact stage as a cache hit.
func TestSimRunnerEmitsStageEvents(t *testing.T) {
	m := standalone(t, Options{QueueDepth: 4}, ExecOptions{}, 1)
	defer func() { shutdown(t, m) }()

	spec := Spec{Workload: "sgemm", Scale: "tiny", Tiles: 2}
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, first, 60*time.Second)
	evs, _, _ := first.EventsSince(0)
	var stages []string
	var firstHit *bool
	for _, e := range evs {
		if e.Type == "stage" {
			stages = append(stages, e.Stage)
			if e.Stage == "artifact" {
				firstHit = e.CacheHit
			}
		}
	}
	if want := []string{"artifact", "run", "report"}; fmt.Sprint(stages) != fmt.Sprint(want) {
		t.Fatalf("stage events = %v, want %v", stages, want)
	}
	if firstHit == nil || *firstHit {
		t.Fatalf("first submission artifact cacheHit = %v, want false", firstHit)
	}
	// The engine's terminal progress update bypasses the runner's throttle,
	// so every finished job's last progress event is Final and sits at the
	// run's true end cycle — never a stale throttled tick.
	var lastProgress *Event
	for i := range evs {
		if evs[i].Type == "progress" {
			lastProgress = &evs[i]
		}
	}
	if lastProgress == nil || !lastProgress.Final {
		t.Fatalf("no final progress event (last = %+v)", lastProgress)
	}
	var report struct {
		Cycles int64 `json:"cycles"`
	}
	if err := json.Unmarshal(first.Status().Report, &report); err != nil {
		t.Fatal(err)
	}
	if lastProgress.Cycle != report.Cycles {
		t.Fatalf("final progress cycle = %d, report cycles = %d", lastProgress.Cycle, report.Cycles)
	}

	second, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, second, 60*time.Second)
	evs, _, _ = second.EventsSince(0)
	for _, e := range evs {
		if e.Type == "stage" && e.Stage == "artifact" {
			if e.CacheHit == nil || !*e.CacheHit {
				t.Fatalf("repeat submission artifact cacheHit = %v, want true", e.CacheHit)
			}
		}
	}
}
