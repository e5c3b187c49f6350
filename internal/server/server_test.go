package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mosaicsim/internal/config"
	"mosaicsim/internal/jobs"
	"mosaicsim/internal/sim"
)

// newTestServer stands up a standalone daemon's stack — a manager, an
// in-process executor with the given slots on its leases — and an httptest
// server over it, all torn down with the test.
func newTestServer(t *testing.T, opts jobs.Options, x jobs.ExecOptions, slots int) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	m := jobs.NewManager(opts)
	x.Registry = m.Registry()
	served := make(chan struct{})
	go func() {
		defer close(served)
		jobs.NewExecutor(x).Serve(context.Background(), m.Local(), slots)
	}()
	ts := httptest.NewServer(New(m))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
		<-served
	})
	return ts, m
}

func postJob(t *testing.T, ts *httptest.Server, spec jobs.Spec) (jobs.Status, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.Status
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) jobs.Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", id, resp.Status, b)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after %v (state %s)", id, timeout, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGoldenReportMatchesSessionPath is the golden seam test: the report a
// job serves over HTTP must be byte-identical to what a direct sim.Session
// run of the same spec produces (modulo the transport's whitespace
// indentation, which json.Compact strips from both sides).
func TestGoldenReportMatchesSessionPath(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{QueueDepth: 8}, jobs.ExecOptions{}, 2)
	spec := jobs.Spec{Workload: "sgemm", Scale: "tiny", Tiles: 2}

	st, resp := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	if got, want := resp.Header.Get("Location"), "/v1/jobs/"+st.ID; got != want {
		t.Errorf("Location = %q, want %q", got, want)
	}
	final := waitDone(t, ts, st.ID, 60*time.Second)
	if final.State != jobs.StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if len(final.Report) == 0 {
		t.Fatal("done job served no report")
	}

	// The CLI/Session path: same spec, fresh private cache, direct engine run.
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

	var got bytes.Buffer
	if err := json.Compact(&got, final.Report); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("HTTP report diverges from Session path:\n http: %s\n  sim: %s", got.String(), want)
	}
}

// TestGoldenHeterogeneousTopology submits a heterogeneous core+accel
// topology through mosaicd — once by preset name and once as the inline
// declarative form — and checks both reports are byte-identical to a direct
// sim.Session run over the same topology. It also checks the per-tile-kind
// metrics distinguish core time from accelerator-tile time after the run.
func TestGoldenHeterogeneousTopology(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{QueueDepth: 8}, jobs.ExecOptions{}, 2)

	byPreset := jobs.Spec{Workload: "sgemm", Scale: "tiny", Preset: "core-accel"}
	inline, err := config.TopologyPreset("core-accel")
	if err != nil {
		t.Fatal(err)
	}
	byInline := jobs.Spec{Workload: "sgemm", Scale: "tiny", Topology: inline}

	var reports [][]byte
	for _, spec := range []jobs.Spec{byPreset, byInline} {
		st, resp := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit: %s", resp.Status)
		}
		final := waitDone(t, ts, st.ID, 60*time.Second)
		if final.State != jobs.StateDone {
			t.Fatalf("state = %s (%s), want done", final.State, final.Error)
		}
		var got bytes.Buffer
		if err := json.Compact(&got, final.Report); err != nil {
			t.Fatal(err)
		}
		reports = append(reports, got.Bytes())
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Errorf("preset and inline topology reports diverge:\npreset: %s\ninline: %s", reports[0], reports[1])
	}

	// The Session path: same topology, fresh private cache, direct engine run.
	norm, err := byPreset.Normalize()
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
	if !bytes.Equal(reports[0], want) {
		t.Errorf("HTTP report diverges from Session path:\n http: %s\n  sim: %s", reports[0], want)
	}

	text := scrapeMetrics(t, ts)
	for _, kind := range []string{"ooo", "accel-tile"} {
		line := fmt.Sprintf(`mosaicd_tile_active_cycles_total{kind=%q}`, kind)
		found := false
		for _, l := range strings.Split(text, "\n") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(l, line+" "), "%f", &v); strings.HasPrefix(l, line+" ") && err == nil && v > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("metrics missing nonzero %s:\n%s", line, grepPrefix(text, "mosaicd_tile_"))
		}
	}
}

// TestConcurrentSubmissions drives the acceptance-scale load through the
// HTTP layer: >= 32 concurrent mixed-workload submissions, all reaching
// done, deduplicated through the shared cache (visible in /metrics).
func TestConcurrentSubmissions(t *testing.T) {
	cache := sim.NewCache()
	cache.SetMaxEntries(64)
	ts, _ := newTestServer(t, jobs.Options{QueueDepth: 64}, jobs.ExecOptions{Cache: cache}, 4)

	names := []string{"sgemm", "spmv", "bfs"}
	const n = 32
	ids := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := jobs.Spec{Workload: names[i%len(names)], Scale: "tiny", Tiles: 1 + i%2}
			body, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				b, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("submit %d: %s: %s", i, resp.Status, b)
				return
			}
			var st jobs.Status
			if errs[i] = json.NewDecoder(resp.Body).Decode(&st); errs[i] == nil {
				ids[i] = st.ID
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	for i, id := range ids {
		if st := waitDone(t, ts, id, 120*time.Second); st.State != jobs.StateDone {
			t.Fatalf("job %d (%s) state = %s (%s)", i, id, st.State, st.Error)
		}
	}
	text := scrapeMetrics(t, ts)
	if !strings.Contains(text, fmt.Sprintf(`mosaicd_jobs_total{state="done"} %d`, n)) {
		t.Errorf("metrics missing %d done jobs:\n%s", n, grepPrefix(text, "mosaicd_jobs_total"))
	}
	hits := metricValue(t, text, "mosaicd_cache_hits_total")
	if hits == 0 {
		t.Errorf("cache hits = 0 over %d submissions of 6 shapes; dedup not visible in metrics", n)
	}
}

// TestEventStreamNDJSON reads a job's full event stream and checks its
// shape: lifecycle edges in order, the three stages with cache attribution,
// monotonic sequence numbers, and stream termination at the terminal state.
func TestEventStreamNDJSON(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{QueueDepth: 4}, jobs.ExecOptions{}, 1)
	st, _ := postJob(t, ts, jobs.Spec{Workload: "spmv", Scale: "tiny"})

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var evs []jobs.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		evs = append(evs, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(evs) < 5 { // queued, running, 3 stages, done
		t.Fatalf("only %d events: %+v", len(evs), evs)
	}
	for i, e := range evs {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d; stream skipped or reordered", i, e.Seq)
		}
	}
	if evs[0].Type != "state" || evs[0].State != jobs.StateQueued {
		t.Errorf("first event = %+v, want queued edge", evs[0])
	}
	if last := evs[len(evs)-1]; last.Type != "state" || last.State != jobs.StateDone {
		t.Errorf("last event = %+v, want done edge", last)
	}
	var stages []string
	for _, e := range evs {
		if e.Type == "stage" {
			stages = append(stages, e.Stage)
			if e.Stage == "artifact" && e.CacheHit == nil {
				t.Error("artifact stage event missing cacheHit attribution")
			}
		}
	}
	if fmt.Sprint(stages) != fmt.Sprint([]string{"artifact", "run", "report"}) {
		t.Errorf("stages = %v, want [artifact run report]", stages)
	}
	// Every finished run's stream carries the engine's terminal progress
	// update (it bypasses the runner's 100ms throttle), so stream consumers
	// always see the final cycle position.
	finals := 0
	for _, e := range evs {
		if e.Type == "progress" && e.Final {
			finals++
		}
	}
	if finals != 1 {
		t.Errorf("stream has %d final progress events, want exactly 1:\n%+v", finals, evs)
	}
}

// TestCancelReturnsBeforeStatusSettles pins the DELETE semantics, the one
// cancel rule seen from the API: the 202 body already says cancelled, with
// the context error, and the run's context is done by the time the response
// arrives — but the run unwinds afterwards, and the executor slot it holds
// goes to the next job only when it has returned.
func TestCancelReturnsBeforeStatusSettles(t *testing.T) {
	started := make(chan string, 2)
	runCtx := make(chan context.Context, 2)
	unwound := make(chan struct{})
	runner := func(ctx context.Context, l *jobs.Lease, emit func(jobs.Event)) (json.RawMessage, error) {
		runCtx <- ctx
		started <- l.JobID
		<-ctx.Done()
		<-unwound // simulate mid-run unwinding
		return nil, ctx.Err()
	}
	ts, m := newTestServer(t, jobs.Options{QueueDepth: 1}, jobs.ExecOptions{Runner: runner}, 1)
	st, _ := postJob(t, ts, jobs.Spec{Workload: "sgemm", Scale: "tiny"})
	<-started
	ctx := <-runCtx
	next, _ := postJob(t, ts, jobs.Spec{Workload: "spmv", Scale: "tiny"})
	// Release the next job's run, which blocks until cancelled, so the
	// teardown's drain does not wait out its deadline on it.
	t.Cleanup(func() { m.Cancel(next.ID) })

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status = %s, want 202", resp.Status)
	}
	var at jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&at); err != nil {
		t.Fatal(err)
	}
	if at.State != jobs.StateCancelled {
		t.Fatalf("DELETE response state = %s, want cancelled (cancel is decided at the manager)", at.State)
	}
	if !strings.Contains(at.Error, "context canceled") {
		t.Errorf("DELETE response error = %q, want the context error", at.Error)
	}
	if ctx.Err() == nil {
		t.Error("the run's context is still live after the DELETE response")
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
	if final := getStatus(t, ts, st.ID); final.State != jobs.StateCancelled {
		t.Fatalf("final state = %s, want cancelled", final.State)
	}
}

func TestAdmissionAndErrorMapping(t *testing.T) {
	started := make(chan struct{}, 1)
	runner := func(ctx context.Context, l *jobs.Lease, emit func(jobs.Event)) (json.RawMessage, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts, m := newTestServer(t, jobs.Options{QueueDepth: 1}, jobs.ExecOptions{Runner: runner}, 1)

	// Fill the worker and the queue.
	first, resp := postJob(t, ts, jobs.Spec{Workload: "sgemm", Scale: "tiny"})
	if resp.StatusCode != 201 {
		t.Fatalf("first submit: %s", resp.Status)
	}
	<-started
	second, resp := postJob(t, ts, jobs.Spec{Workload: "spmv", Scale: "tiny"})
	if resp.StatusCode != 201 {
		t.Fatalf("second submit: %s", resp.Status)
	}
	// Release both, queued one first so it never takes the freed slot: the
	// runs block until cancelled, and the teardown's drain would otherwise
	// wait out its deadline on them.
	t.Cleanup(func() {
		m.Cancel(second.ID)
		m.Cancel(first.ID)
	})
	// Shed: 429 with Retry-After.
	_, resp = postJob(t, ts, jobs.Spec{Workload: "bfs", Scale: "tiny"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed submit status = %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}

	// Unknown job: 404.
	r, err := http.Get(ts.URL + "/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %s, want 404", r.Status)
	}

	// Invalid spec: 400 with a did-you-mean suggestion.
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"sgem"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec status = %s, want 400", resp2.Status)
	}
	if !strings.Contains(string(b), `did you mean \"sgemm\"`) && !strings.Contains(string(b), "did you mean") {
		t.Errorf("bad spec body missing did-you-mean: %s", b)
	}
	if strings.Contains(string(b), "-list") {
		t.Errorf("bad spec body names a command-line flag: %s", b)
	}

	// Unknown field — a typo, or a knob retired since the client was
	// written — at either level: 400 naming it (DisallowUnknownFields).
	for _, tc := range []struct{ body, field string }{
		{`{"workload":"sgemm","tils":4}`, "tils"},
		{`{"workload":"sgemm","step_workers":4}`, "step_workers"},
		{`{"workload":"sgemm","topology":{"name":"x","tiles":[{"kind":"ooo"}],"step_workers":4}}`, "step_workers"},
	} {
		resp3, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp3.Body)
		resp3.Body.Close()
		if resp3.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %s, want 400", tc.body, resp3.Status)
		}
		if !strings.Contains(string(b), `unknown field \"`+tc.field+`\"`) {
			t.Errorf("%s: body does not name the field %q: %s", tc.body, tc.field, b)
		}
	}

	// A size knob that would kill the process sizing an allocation (the
	// first two did, on the lease goroutine, after a 201): 400 naming it.
	const mem = `"mem":{"l1":{"name":"L1","size_kb":32,"line_bytes":%d,"assoc":8},"l2":{"name":"L2","size_kb":%d,"line_bytes":64,"assoc":8},"dram":{"model":"simple"}}`
	for _, tc := range []struct{ topology, field string }{
		{`"tiles":[{"kind":"ooo","overrides":{"window_size":4611686018427387904}}],` + fmt.Sprintf(mem, 64, 2048), "window_size"},
		{`"tiles":[{"kind":"ooo"}],` + fmt.Sprintf(mem, 64, 1<<42), "size_kb"},
		{`"tiles":[{"kind":"ooo","overrides":{"max_messages":1099511627776}}],` + fmt.Sprintf(mem, 64, 2048), "max_messages"},
		{`"tiles":[{"kind":"ooo"}],` + fmt.Sprintf(mem, 48, 2048), "line_bytes"},
		// A non-positive size in overrides was admitted: under "noskip" the
		// run span for hours and held its slot until -job-timeout.
		{`"tiles":[{"kind":"ooo","overrides":{"window_size":0}}],` + fmt.Sprintf(mem, 64, 2048), "window_size"},
		{`"tiles":[{"kind":"ooo","overrides":{"window_size":-4}}],` + fmt.Sprintf(mem, 64, 2048), "window_size"},
		{`"tiles":[{"kind":"ooo","overrides":{"issue_width":0}}],` + fmt.Sprintf(mem, 64, 2048), "issue_width"},
		{`"tiles":[{"kind":"inorder","overrides":{"issue_width":-3}}],` + fmt.Sprintf(mem, 64, 2048), "issue_width"},
		{`"tiles":[{"kind":"ooo","overrides":{"lsq_size":-1}}],` + fmt.Sprintf(mem, 64, 2048), "lsq_size"},
		// Every knob within its bound, the system as a whole beyond any host.
		{`"tiles":[{"kind":"ooo","count":4096}],` + fmt.Sprintf(mem, 64, 1<<20), "size_kb"},
	} {
		body := `{"workload":"sgemm","scale":"tiny","topology":{"name":"x",` + tc.topology + `}}`
		resp4, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp4.Body)
		resp4.Body.Close()
		if resp4.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), tc.field+" must be") {
			t.Errorf("hostile %s: status %s, body %s; want 400 naming the field", tc.field, resp4.Status, b)
		}
	}
}

func TestListElidesReports(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Options{QueueDepth: 4}, jobs.ExecOptions{}, 1)
	st, _ := postJob(t, ts, jobs.Spec{Workload: "sgemm", Scale: "tiny"})
	waitDone(t, ts, st.ID, 60*time.Second)

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v, want the one submitted job", list)
	}
	if list[0].Report != nil {
		t.Error("list entry carries a report; lists must stay light")
	}
	if full := getStatus(t, ts, st.ID); len(full.Report) == 0 {
		t.Error("single-job GET lost the report")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	ts, m := newTestServer(t, jobs.Options{QueueDepth: 4}, jobs.ExecOptions{}, 1)
	st, _ := postJob(t, ts, jobs.Spec{Workload: "sgemm", Scale: "tiny"})
	waitDone(t, ts, st.ID, 60*time.Second)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(b), `"status": "ok"`) {
		t.Errorf("healthz = %s %s", resp.Status, b)
	}

	text := scrapeMetrics(t, ts)
	for _, want := range []string{
		"mosaicd_jobs_submitted_total 1",
		`mosaicd_jobs_total{state="done"} 1`,
		"mosaicd_queue_depth",
		"mosaicd_jobs_inflight",
		`mosaicd_stage_seconds_count{stage="run"} 1`,
		"mosaicd_cache_misses_total",
		"mosaicd_cache_evictions_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	// Draining flips healthz.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(b2), "draining") {
		t.Errorf("healthz after shutdown = %s, want draining", b2)
	}
	// And submissions map to 503.
	_, resp3 := postJob(t, ts, jobs.Spec{Workload: "sgemm", Scale: "tiny"})
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %s, want 503", resp3.Status)
	}
}

// TestReplayMetricsAndReportParity submits the same job twice with replay
// enabled: the first run records a timing schedule, the second is answered
// from it. The two reports must be byte-identical (the replay engine's
// bit-exactness contract surfaced at the API seam), and the replay and
// artifact-cache series must show up in /metrics.
func TestReplayMetricsAndReportParity(t *testing.T) {
	cache := sim.NewCache()
	ts, _ := newTestServer(t, jobs.Options{QueueDepth: 8}, jobs.ExecOptions{Cache: cache, Replay: true}, 1)

	spec := jobs.Spec{Workload: "sgemm-accel", Scale: "tiny"}
	st1, _ := postJob(t, ts, spec)
	first := waitDone(t, ts, st1.ID, 120*time.Second)
	if first.State != jobs.StateDone {
		t.Fatalf("first job state = %s (%s)", first.State, first.Error)
	}
	st2, _ := postJob(t, ts, spec)
	second := waitDone(t, ts, st2.ID, 120*time.Second)
	if second.State != jobs.StateDone {
		t.Fatalf("second job state = %s (%s)", second.State, second.Error)
	}
	r1 := getStatus(t, ts, st1.ID).Report
	r2 := getStatus(t, ts, st2.ID).Report
	if !bytes.Equal(r1, r2) {
		t.Errorf("replayed report differs from recorded run:\nfirst:  %s\nsecond: %s", r1, r2)
	}

	text := scrapeMetrics(t, ts)
	if v := metricValue(t, text, "mosaicd_replay_hits_total"); v < 1 {
		t.Errorf("mosaicd_replay_hits_total = %v, want >= 1", v)
	}
	if v := metricValue(t, text, "mosaicd_schedules_recorded_total"); v < 1 {
		t.Errorf("mosaicd_schedules_recorded_total = %v, want >= 1", v)
	}
	if v := metricValue(t, text, "mosaicd_replay_hit_ratio"); v <= 0 {
		t.Errorf("mosaicd_replay_hit_ratio = %v, want > 0", v)
	}
	for _, want := range []string{
		"mosaicd_cache_hits_total",
		"mosaicd_cache_misses_total",
		"mosaicd_cache_evictions_total",
		"mosaicd_replay_fallbacks_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepPrefix(text, "mosaicd_"))
		}
	}
	if strings.Contains(text, "mosaicd_artifact_cache_") {
		t.Errorf("the mosaicd_artifact_cache_* mirror series are back; mosaicd_cache_* is the one name")
	}
}

// TestWorkerSurface: a fleet worker serves the two probes from its executor
// — /healthz with the same keys every role answers — and no job API: its
// jobs are the coordinator's to serve.
func TestWorkerSurface(t *testing.T) {
	ts := httptest.NewServer(NewWorker(jobs.NewExecutor(jobs.ExecOptions{})))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz = %s %v (%v)", resp.Status, hz, err)
	}
	for _, key := range []string{"queueDepth", "queueCapacity", "running", "leased", "draining", "accepting"} {
		if _, ok := hz[key]; !ok {
			t.Errorf("healthz lacks %q: %v", key, hz)
		}
	}
	text := scrapeMetrics(t, ts)
	if !strings.Contains(text, "mosaicd_jobs_inflight 0") || strings.Contains(text, "mosaicd_queue_depth") {
		t.Errorf("worker metrics should describe execution only:\n%s", grepPrefix(text, "mosaicd_"))
	}
	for _, path := range []string{"/v1/jobs", "/v1/jobs/j000001", "/v1/jobs/j000001/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s on a worker = %s, want 404", path, resp.Status)
		}
	}
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); !strings.Contains(got, "version=0.0.4") {
		t.Errorf("metrics Content-Type = %q, want Prometheus text 0.0.4", got)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue extracts an unlabelled sample's value from exposition text.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %f", &v); err == nil && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

func grepPrefix(text, prefix string) string {
	var sb strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			sb.WriteString(line + "\n")
		}
	}
	return sb.String()
}
