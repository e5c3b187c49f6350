package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mosaicsim"
)

// jobSpec is the submission body: the subset of mosaicd's job spec the
// generator varies.
type jobSpec struct {
	Workload string `json:"workload"`
	Scale    string `json:"scale"`
	Tiles    int    `json:"tiles,omitempty"`
	Core     string `json:"core,omitempty"`
	Mem      string `json:"mem,omitempty"`
	Preset   string `json:"preset,omitempty"`
}

// key names the shape; jobs with the same key must report the same result.
func (j jobSpec) key() string {
	if j.Preset != "" {
		return fmt.Sprintf("%s/%s/%s", j.Workload, j.Scale, j.Preset)
	}
	return fmt.Sprintf("%s/%s/t%d/%s/%s", j.Workload, j.Scale, j.Tiles, j.Core, j.Mem)
}

// smallKernels are the kernels whose small-scale run is short enough for a
// job mix that has to finish several passes inside one measured run.
var smallKernels = []string{"histo", "lbm", "mri-gridding", "mri-q", "sad", "sgemm", "stencil", "tpacf"}

// jobGroups lists the (kernel, tile count) groups in popularity order: every
// kernel on one tile, then on two, then on four. What a job costs depends
// mostly on its group (the trace and the instruction count), little on the
// core kind and memory system inside it.
func jobGroups() []jobSpec {
	var groups []jobSpec
	for _, tiles := range []int{1, 2, 4} {
		for _, k := range mosaicsim.WorkloadNames() {
			// histo fails its own result check on more than one tile at
			// small scale (README.md, known defects), so it stays on one.
			if k == "histo" && tiles > 1 {
				continue
			}
			groups = append(groups, jobSpec{Workload: k, Tiles: tiles})
		}
	}
	return groups
}

// jobPresets are the jobs that name a topology preset instead of a shape.
var jobPresets = []jobSpec{
	{Workload: "sgemm", Preset: "spmd-xeon"},
	{Workload: "projection", Preset: "dae-pair"},
	{Workload: "sgemm", Preset: "core-accel"},
}

// jobList builds the n jobs of one pass. The skeleton is the same for every
// seed, so that every seed asks for nearly the same work: one tiny job per
// preset; small jobs at small scale (one out-of-order tile on Table II
// memory, the smallKernels in turn) evenly spaced through the list,
// because they are a hundred times a tiny job and where they fall decides how
// long a client idles at the end; and the rest at tiny scale shared out over
// the groups by Zipf weight (group k has weight (jobFlatten+k)^-jobSkew). The
// seed fills it in: each tiny job's core kind and memory system, and the
// order of the tiny jobs. Popular groups hold more jobs than they have
// shapes, so shapes repeat there; in the tail a job is one of two in its
// group and runs cold.
func jobList(seed int64, n, small int) []jobSpec {
	rng := rand.New(rand.NewSource(seed))
	cores, mems := []string{"ooo", "inorder", "xeon"}, []string{"tab2", "tab1"}
	tiny := append([]jobSpec(nil), jobPresets...)
	groups := jobGroups()
	weights := make([]float64, len(groups))
	for k := range weights {
		weights[k] = math.Pow(jobFlatten+float64(k), -jobSkew)
	}
	for k, c := range apportion(n-small-len(tiny), weights) {
		for i := 0; i < c; i++ {
			j := groups[k]
			j.Core, j.Mem = cores[rng.Intn(len(cores))], mems[rng.Intn(len(mems))]
			tiny = append(tiny, j)
		}
	}
	rng.Shuffle(len(tiny), func(i, j int) { tiny[i], tiny[j] = tiny[j], tiny[i] })

	jobs := make([]jobSpec, 0, n)
	for placed := 0; len(jobs) < n; {
		if placed < small && len(jobs) == placed*n/small {
			jobs = append(jobs, jobSpec{Workload: smallKernels[placed%len(smallKernels)], Scale: "small", Tiles: 1, Core: "ooo", Mem: "tab2"})
			placed++
			continue
		}
		j := tiny[0]
		tiny = tiny[1:]
		j.Scale = "tiny"
		jobs = append(jobs, j)
	}
	return jobs
}

// apportion shares n whole items out in proportion to weights (largest
// remainders get the items rounding down left over).
func apportion(n int, weights []float64) []int {
	total := sum(weights)
	counts := make([]int, len(weights))
	type rem struct {
		k int
		r float64
	}
	rems := make([]rem, len(weights))
	given := 0
	for k, w := range weights {
		share := float64(n) * w / total
		counts[k] = int(share)
		given += counts[k]
		rems[k] = rem{k, share - float64(counts[k])}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].r > rems[j].r })
	for i := 0; i < n-given; i++ {
		counts[rems[i].k]++
	}
	return counts
}

// service is the workload behind svc_mix and fleet_mix: a closed loop of
// clients, each submitting a job, reading its event stream to the end and
// fetching its report before taking the next job from the list.
type service struct {
	cfg     runConfig
	fleet   bool
	jobs    []jobSpec
	clients int
	http    *http.Client

	tmp     string    // scratch root of this run, removed by close
	dataDir string    // the serving daemon's -data-dir
	front   *daemon   // the daemon clients talk to
	all     []*daemon // front plus fleet workers
}

// Job-mix parameters. With the head of the Zipf curve flattened this far,
// about half the jobs of a pass are the first of their shape and need a
// timing run, and the other half are repeats answered from a recorded
// schedule; unflattened, the median job is a one-millisecond repeat and the
// mix stops exercising the timing core. The job counts keep a pass near
// three seconds on two cores, so a ten-second run holds three of them.
const (
	jobSkew     = 1.1
	jobFlatten  = 8
	svcJobs     = 200
	svcSmall    = 8
	fleetJobs   = 24
	fleetSmall  = 1
	shedRetries = 8
)

func newService(cfg runConfig, fleet bool) *service {
	n, small := svcJobs, svcSmall
	if fleet {
		n, small = fleetJobs, fleetSmall
	}
	if cfg.Smoke {
		n, small = 12, 0
	}
	clients := runtime.NumCPU()
	return &service{
		cfg: cfg, fleet: fleet, clients: clients,
		jobs: jobList(cfg.Seed, n, small),
		http: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients},
		},
	}
}

func (s *service) fresh() bool { return true }

func (s *service) close() {
	for _, d := range s.all {
		d.stop()
	}
	s.all, s.front = nil, nil
	s.http.CloseIdleConnections()
	if s.tmp != "" {
		_ = os.RemoveAll(s.tmp)
		s.tmp = ""
	}
}

// readinessJob is the one job setup submits to a freshly booted service: a
// daemon is ready for the mix once it has served a job end to end.
var readinessJob = jobSpec{Workload: "sgemm", Scale: "tiny", Tiles: 1, Core: "ooo", Mem: "tab2"}

// setup boots the daemon (or the coordinator and its two workers) on a
// fresh data directory and waits until it has served the readiness job.
func (s *service) setup(ctx context.Context, rec *recorder) error {
	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(root, s.cfg.Workload+"-*")
	if err != nil {
		return err
	}
	s.tmp = tmp
	s.dataDir = filepath.Join(tmp, "data")
	if err := s.boot(ctx); err != nil {
		return err
	}
	if r := s.runJob(ctx, nil, readinessJob); r.Err != nil {
		return fmt.Errorf("readiness job: %w", r.Err)
	}
	return nil
}

func (s *service) boot(ctx context.Context) error {
	args := []string{"-data-dir", s.dataDir}
	if s.fleet {
		args = append(args, "-role", "coordinator")
	}
	front, err := startDaemon(ctx, s.cfg.Bin, args...)
	if err != nil {
		return err
	}
	s.front = front
	s.all = append(s.all, front)
	if err := front.ready(ctx, s.http); err != nil {
		return err
	}
	if !s.fleet {
		return nil
	}
	for _, name := range []string{"w1", "w2"} {
		w, err := startDaemon(ctx, s.cfg.Bin, "-role", "worker", "-coordinator", front.base,
			"-name", name, "-workers", "1", "-slots", "1")
		if err != nil {
			return err
		}
		s.all = append(s.all, w)
	}
	// Ready means both workers have registered with the coordinator.
	deadline := time.Now().Add(20 * time.Second)
	for {
		m, _, err := s.scrape()
		if err == nil && m["mosaicd_fleet_workers"] >= 2 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet workers never registered (last scrape error: %v)", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// scrape reads /metrics of every daemon of the run into one name -> value
// map, summing series of the same name (labelled series keep their label
// text in the name): in a fleet the coordinator counts leases and the
// workers count cache hits. The time is the front daemon's request alone.
func (s *service) scrape() (map[string]float64, time.Duration, error) {
	m := map[string]float64{}
	var front time.Duration
	for i, d := range s.all {
		start := time.Now()
		resp, err := s.http.Get(d.base + "/metrics")
		if err != nil {
			return nil, 0, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, 0, err
		}
		if i == 0 {
			front = time.Since(start)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			if i := strings.LastIndexByte(line, ' '); i > 0 {
				if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
					m[line[:i]] += v
				}
			}
		}
	}
	return m, front, nil
}

func (s *service) pass(ctx context.Context, rec *recorder) (passResult, error) {
	p := passResult{Ops: make([]opResult, len(s.jobs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.jobs) || ctx.Err() != nil {
					return
				}
				p.Ops[i] = s.runJob(ctx, rec, s.jobs[i])
			}
		}()
	}
	wg.Wait()
	p.Wall = time.Since(start)
	for i := range p.Ops {
		if p.Ops[i].ID == "" { // cancelled before it was attempted
			p.Ops[i] = opResult{ID: s.jobs[i].key(), Err: ctx.Err()}
		}
	}

	m, took, err := s.scrape()
	if err != nil {
		return p, fmt.Errorf("scrape /metrics: %w", err)
	}
	p.Counts = s.metricCounts(m)
	p.Counts["server.metrics_scrape_ms"] = float64(took.Microseconds()) / 1e3
	// The directory also holds the readiness job.
	p.Counts["store.bytes_per_job"] = float64(dirBytes(filepath.Join(s.dataDir, "jobs"))) / float64(len(s.jobs)+1)
	for _, d := range s.all {
		if mb, ok := peakRSSMB(d.pid()); ok {
			p.PeakRSSMB += mb
		}
	}
	return p, nil
}

// metricCounts picks the per-layer counters out of a /metrics scrape. The
// artifact-cache family is exported under two names today; reading the new
// one first means dropping the old one later does not break the read.
func (s *service) metricCounts(m map[string]float64) map[string]float64 {
	cache := func(suffix string) float64 {
		if v, ok := m["mosaicd_artifact_cache_"+suffix]; ok {
			return v
		}
		return m["mosaicd_cache_"+suffix]
	}
	c := map[string]float64{
		"sim.artifact_hits":      cache("hits_total"),
		"sim.artifact_misses":    cache("misses_total"),
		"sim.artifact_evictions": cache("evictions_total"),
		"replay.hits":            m["mosaicd_replay_hits_total"],
		"replay.fallbacks":       m["mosaicd_replay_fallbacks_total"],
		"replay.recorded":        m["mosaicd_schedules_recorded_total"],
		"jobs.shed_total":        m["mosaicd_jobs_rejected_total"],
	}
	if s.fleet {
		c["cluster.leases_granted"] = m["mosaicd_fleet_leases_granted_total"]
		c["cluster.affinity_hits"] = m["mosaicd_lease_affinity_hits_total"]
		c["cluster.steals"] = m["mosaicd_lease_steals_total"]
		c["cluster.leases_expired"] = m["mosaicd_leases_expired_total"]
		c["cluster.heartbeats"] = m["mosaicd_fleet_heartbeats_total"]
	}
	return c
}

// jobStatus is what GET /v1/jobs/{id} returns, as far as the benchmark reads
// it.
type jobStatus struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started"`
	Finished  *time.Time      `json:"finished"`
	Error     string          `json:"error"`
	Report    json.RawMessage `json:"report"`
}

// jobEvent is one line of a job's event stream.
type jobEvent struct {
	Time     time.Time `json:"time"`
	Type     string    `json:"type"`
	Stage    string    `json:"stage"`
	CacheHit *bool     `json:"cacheHit"`
	Seconds  float64   `json:"seconds"`
	Stepped  int64     `json:"stepped"`
	Skipped  int64     `json:"skipped"`
}

// runJob is one op: submit, follow the event stream to its end, fetch the
// report. Every job reads its whole stream either way (that is how a client
// waits); only a traced job parses it.
func (s *service) runJob(ctx context.Context, rec *recorder, spec jobSpec) opResult {
	r := opResult{ID: spec.key(), Counts: map[string]float64{}}
	body, _ := json.Marshal(spec) // a struct of strings and ints cannot fail
	base := s.front.base
	t0 := time.Now()

	var st jobStatus
	for shed := 0; ; shed++ {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := s.http.Do(req)
		if err != nil {
			r.Err = err
			return r
		}
		if resp.StatusCode == http.StatusTooManyRequests && shed < shedRetries {
			after, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			select {
			case <-time.After(time.Duration(max(after, 1)) * time.Second):
			case <-ctx.Done():
				r.Err = ctx.Err()
				return r
			}
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			r.Err = err
			return r
		}
		if resp.StatusCode != http.StatusCreated {
			r.Err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
			return r
		}
		if err := json.Unmarshal(b, &st); err != nil {
			r.Err = fmt.Errorf("submit: %w", err)
			return r
		}
		break
	}
	t1 := time.Now()

	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+st.ID+"/events", nil)
	resp, err := s.http.Do(req)
	if err != nil {
		r.Err = err
		return r
	}
	tFirst := time.Now()
	var events []jobEvent
	if rec == nil {
		_, err = io.Copy(io.Discard, resp.Body)
	} else {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var e jobEvent
			if err = json.Unmarshal(sc.Bytes(), &e); err != nil {
				break
			}
			events = append(events, e)
		}
		if err == nil {
			err = sc.Err()
		}
	}
	resp.Body.Close()
	if err != nil {
		r.Err = fmt.Errorf("events: %w", err)
		return r
	}
	t2 := time.Now()

	req, _ = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+st.ID, nil)
	resp, err = s.http.Do(req)
	if err != nil {
		r.Err = err
		return r
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t3 := time.Now()
	r.Wall = t3.Sub(t0)
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	if err != nil {
		r.Err = fmt.Errorf("status: %w", err)
		return r
	}
	if st.State != "done" {
		r.Err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return r
	}
	var res mosaicsim.Result
	if err := json.Unmarshal(st.Report, &res); err != nil {
		r.Err = fmt.Errorf("report: %w", err)
		return r
	}
	r.Stats = opStats{Cycles: res.Cycles, Instrs: res.Instrs}
	for k, v := range resultCounts(res) {
		r.Counts[k] = v
	}
	r.Counts["server.report_bytes"] = float64(len(st.Report))

	if rec == nil || st.Started == nil || st.Finished == nil {
		return r
	}
	// What the job's own timestamps say, as per-job samples: the daemon
	// runs on this host, so its wall clock and the client's are one clock.
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	r.Samples = map[string]float64{
		"submit_ms":         ms(t1.Sub(t0)),
		"events_ttfb_ms":    ms(tFirst.Sub(t1)),
		"status_ms":         ms(t3.Sub(t2)),
		"queue_wait_ms":     ms(st.Started.Sub(st.Submitted)),
		"run_ms":            ms(st.Finished.Sub(*st.Started)),
		"done_to_client_ms": ms(t2.Sub(*st.Finished)),
	}
	// The span tree is the client's view: submit, stream and fetch_report
	// split the turnaround between them, and the job's queue wait, run and
	// stages hang under stream, clipped to it. A job that finished while
	// its submit call was still returning leaves nothing to see there.
	op := rec.newOp()
	root := rec.add("job", -1, op, t0, t3)
	rec.add("submit", root, op, t0, t1)
	stream := rec.add("stream", root, op, t1, t2)
	rec.add("fetch_report", root, op, t2, t3)
	clip := func(t time.Time) time.Time {
		if t.Before(t1) {
			return t1
		}
		if t.After(t2) {
			return t2
		}
		return t
	}
	started, finished := clip(*st.Started), clip(*st.Finished)
	rec.add("queue_wait", stream, op, clip(st.Submitted), started)
	running := rec.add("running", stream, op, started, finished)
	rec.add("done_to_client", stream, op, finished, t2)
	stageEnd := started
	for _, e := range events {
		if e.Type != "stage" {
			continue
		}
		d := time.Duration(e.Seconds * float64(time.Second))
		// Stages run one after the other; each span starts no earlier than
		// the one before it ended and stays inside running.
		lo, hi := clip(e.Time.Add(-d)), clip(e.Time)
		if lo.Before(stageEnd) {
			lo = stageEnd
		}
		if hi.After(finished) {
			hi = finished
		}
		if hi.After(lo) {
			rec.add("stage."+e.Stage, running, op, lo, hi)
			stageEnd = hi
		}
		r.Counts["jobs.stage_"+e.Stage+"_s"] += e.Seconds
		if e.CacheHit != nil {
			r.Counts["jobs.stages_cached"]++
			if *e.CacheHit {
				r.Counts["jobs.stages_cache_hit"]++
			}
		}
		if e.Stage == "run" {
			r.Counts["soc.stepped_cycles"] = float64(e.Stepped)
			r.Counts["soc.skipped_cycles"] = float64(e.Skipped)
		}
	}
	return r
}

func (s *service) layers(ctx context.Context, lc *layerContext) {
	o := lc.out
	simLayers(lc)
	o.layer("server.submit_ms_p50", lc.sampleMedian("submit_ms"))
	o.layer("server.status_ms_p50", lc.sampleMedian("status_ms"))
	o.layer("server.events_ttfb_ms_p50", lc.sampleMedian("events_ttfb_ms"))
	o.layer("jobs.queue_wait_ms_p50", lc.sampleMedian("queue_wait_ms"))
	o.layer("jobs.run_ms_p50", lc.sampleMedian("run_ms"))
	o.layer("jobs.done_to_client_ms_p50", lc.sampleMedian("done_to_client_ms"))
	if s.fleet {
		// On a coordinator, started - submitted is the wait for a worker to
		// poll for, and be granted, the lease.
		o.layer("cluster.lease_wait_ms_p50", lc.sampleMedian("queue_wait_ms"))
	}
	var turns []float64
	for _, p := range lc.untraced {
		for _, op := range p.Ops {
			if op.Err == nil {
				turns = append(turns, op.Wall.Seconds()*1e3)
			}
		}
	}
	if p90, err := percentile(turns, 90); err == nil {
		o.layer("jobs.turnaround_ms_p90", p90)
	} else {
		o.na("jobs.turnaround_ms_p90", err.Error())
	}
	n := float64(len(s.jobs))
	o.layer("server.report_bytes", lc.count("server.report_bytes")/n)
	o.layer("jobs.stage_artifact_s", lc.count("jobs.stage_artifact_s"))
	o.layer("jobs.stage_run_s", lc.count("jobs.stage_run_s"))
	o.layer("jobs.stage_report_s", lc.count("jobs.stage_report_s"))
	o.layer("jobs.stage_cache_hit_frac", ratio(lc.count("jobs.stages_cache_hit"), lc.count("jobs.stages_cached")))
	names := []string{
		"sim.artifact_hits", "sim.artifact_misses", "sim.artifact_evictions",
		"replay.hits", "replay.fallbacks", "replay.recorded",
		"jobs.shed_total", "server.metrics_scrape_ms", "store.bytes_per_job",
	}
	if s.fleet {
		names = append(names, "cluster.leases_granted", "cluster.affinity_hits",
			"cluster.steals", "cluster.leases_expired", "cluster.heartbeats")
	}
	for _, name := range names {
		o.layer(name, lc.count(name))
	}
	if !s.fleet {
		s.recoverProbe(ctx, lc)
	}
}

// recoverProbe measures store.recover_s on the data directory the last pass
// left behind: drain the daemon, start another on the same directory, and
// time it from exec to ready with every job of the pass served back.
func (s *service) recoverProbe(ctx context.Context, lc *layerContext) {
	o := lc.out
	if s.front == nil {
		o.na("store.recover_s", "no daemon left to restart")
		return
	}
	s.front.drain(15 * time.Second)
	s.all, s.front = nil, nil
	start := time.Now()
	if err := s.boot(ctx); err != nil {
		o.na("store.recover_s", err.Error())
		return
	}
	resp, err := s.http.Get(s.front.base + "/v1/jobs")
	if err != nil {
		o.na("store.recover_s", err.Error())
		return
	}
	defer resp.Body.Close()
	var list []jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		o.na("store.recover_s", err.Error())
		return
	}
	took := time.Since(start)
	done := 0
	for _, j := range list {
		if j.State == "done" {
			done++
		}
	}
	if want := len(s.jobs) + 1; done != want { // the pass's jobs and the readiness job
		o.na("store.recover_s", fmt.Sprintf("restart served %d done jobs, the daemon had run %d", done, want))
		return
	}
	o.layer("store.recover_s", took.Seconds())
}
