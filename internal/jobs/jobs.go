// Package jobs is MosaicSim-Go's bounded simulation job manager: the layer
// that turns the cancellable session engine (internal/sim) into a
// long-running service substrate. Each submitted Spec becomes a Job with an
// ID, a per-job context, and a lifecycle state machine
//
//	queued → running → done | failed | cancelled
//
// driven by a fixed worker pool and, in a fleet, by remote workers holding
// leases (see lease.go). Admission control is explicit: the queue is bounded
// and class-prioritised, per-tenant quotas cap any one client's live jobs,
// and a submission past either bound is shed immediately (ErrQueueFull,
// ErrTenantQuota) instead of growing memory without limit. All jobs share
// one sim.Cache, so identical submissions singleflight their compile/trace
// work, and every lifecycle edge, stage transition, and progress tick is
// published as a per-job event stream (for live observers), as metrics
// (internal/metrics) for scraping, and — when a store is attached — as an
// append-only NDJSON log (internal/store) that survives restarts.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mosaicsim/internal/metrics"
	"mosaicsim/internal/sim"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/store"
)

// State is a job's lifecycle position.
type State string

// The lifecycle states. Queued and Running are live; the rest are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Typed admission and lookup errors. Servers map these onto status codes
// (429, 503, 404); they survive errors.Is through any wrapping.
var (
	// ErrQueueFull sheds a submission that found the bounded queue at
	// capacity.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrTenantQuota sheds a submission whose tenant is at its live-job
	// quota while other tenants still have headroom.
	ErrTenantQuota = errors.New("jobs: tenant quota exceeded")
	// ErrShuttingDown rejects submissions after drain has begun.
	ErrShuttingDown = errors.New("jobs: manager shutting down")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrLeaseLost tells a remote worker its lease is no longer valid (it
	// expired and the job was requeued, or the job was cancelled). The
	// worker must stop reporting for that job.
	ErrLeaseLost = errors.New("jobs: lease lost")
)

// Event is one entry in a job's ordered event log: a lifecycle edge
// (type "state"), a pipeline stage completion (type "stage", with cache
// attribution and elapsed seconds), or an in-flight progress tick
// (type "progress", with the cycle position and stepped/skipped split).
type Event struct {
	Seq   int       `json:"seq"`
	Time  time.Time `json:"time"`
	Type  string    `json:"type"`
	State State     `json:"state,omitempty"`
	Stage string    `json:"stage,omitempty"`
	// CacheHit, on stage events that consult the artifact cache, reports
	// whether the stage's inputs were already resident.
	CacheHit *bool   `json:"cacheHit,omitempty"`
	Seconds  float64 `json:"seconds,omitempty"`
	Cycle    int64   `json:"cycle,omitempty"`
	Stepped  int64   `json:"stepped,omitempty"`
	Skipped  int64   `json:"skipped,omitempty"`
	// Final marks the terminal progress event the engine emits when a run
	// exits (done, cancelled, or cycle-limited): the cycle position is the
	// run's last, never a stale throttled tick.
	Final bool   `json:"final,omitempty"`
	Error string `json:"error,omitempty"`
	// Worker and Attempt appear on lifecycle edges of leased jobs: which
	// remote worker held the lease, and which execution attempt this is.
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
}

// Status is a point-in-time snapshot of a job for API responses.
type Status struct {
	ID        string          `json:"id"`
	State     State           `json:"state"`
	Spec      Spec            `json:"spec"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started,omitempty"`
	Finished  *time.Time      `json:"finished,omitempty"`
	Error     string          `json:"error,omitempty"`
	Report    json.RawMessage `json:"report,omitempty"`
	// Attempts counts execution starts (local or leased); >1 means the job
	// was requeued after a lost lease or a daemon restart.
	Attempts int `json:"attempts,omitempty"`
	// Worker names the remote worker holding (or last holding) the lease.
	Worker string `json:"worker,omitempty"`
}

// Job is one submission moving through the lifecycle. All mutable state is
// guarded by mu; the event log is append-only and notify is closed and
// replaced on every append, so observers wait without polling.
type Job struct {
	ID   string
	Spec Spec // normalized

	ctx    context.Context // per-job; cancelled by Cancel, Shutdown, or the root
	cancel context.CancelFunc

	digest   string            // content address in the store ("" = not persisted)
	persist  func(line []byte) // appends one event line to the store (nil = none)
	affinity uint64            // Spec.AffinityHash(), computed once at admission

	mu          sync.Mutex
	state       State
	err         error
	report      json.RawMessage
	events      []Event
	notify      chan struct{}
	submitted   time.Time
	started     time.Time
	finished    time.Time
	attempts    int
	leased      bool      // held by a remote worker right now
	leaseWorker string    // current (or last) lease holder
	leaseExpiry time.Time // lease deadline; past it the job is requeueable
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the job's terminal error (nil while live or done).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Report returns the finished job's JSON report (nil before done).
func (j *Job) Report() json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.ID,
		State:     j.state,
		Spec:      j.Spec,
		Submitted: j.submitted,
		Report:    j.report,
		Attempts:  j.attempts,
		Worker:    j.leaseWorker,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// emit appends one event under the job lock.
func (j *Job) emit(e Event) {
	j.mu.Lock()
	j.appendLocked(e)
	j.mu.Unlock()
}

// appendLocked appends one event (stamping its sequence number and time),
// persists it if a store is attached, and wakes every waiting observer.
// Persisting under the job lock keeps the on-disk log in exact append order.
func (j *Job) appendLocked(e Event) {
	e.Seq = len(j.events)
	e.Time = time.Now().UTC()
	j.events = append(j.events, e)
	close(j.notify)
	j.notify = make(chan struct{})
	if j.persist != nil {
		if line, err := json.Marshal(e); err == nil {
			j.persist(line)
		}
	}
}

// EventsSince returns the events with sequence >= after, a channel closed
// when the log next grows, and whether the stream is complete (the job is
// terminal and every event has been returned). Observers loop: drain,
// then wait on the channel (or their own context) unless done.
func (j *Job) EventsSince(after int) (evs []Event, more <-chan struct{}, done bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if after < len(j.events) {
		evs = append(evs, j.events[after:]...)
	}
	return evs, j.notify, j.state.Terminal() && after+len(evs) == len(j.events)
}

// Options configures a Manager.
type Options struct {
	// Workers is the number of concurrent local simulations (default
	// GOMAXPROCS). Negative means no local pool at all: jobs queue until a
	// remote worker leases them (coordinator mode).
	Workers int
	// QueueDepth bounds the admission queue; submissions beyond it shed
	// with ErrQueueFull (default 64).
	QueueDepth int
	// JobTimeout caps each job's run wall-clock time, and also caps any
	// smaller per-spec timeout (0 = unbounded).
	JobTimeout time.Duration
	// MaxJobs bounds retained job records: beyond it, the oldest terminal
	// jobs are forgotten (default 4096; their IDs then return ErrNotFound).
	MaxJobs int
	// TenantQuota caps each tenant's live (queued + running + leased)
	// jobs; 0 disables per-tenant quotas.
	TenantQuota int
	// MaxAttempts bounds execution attempts per job (default 3): a job
	// whose lease expires at the bound fails instead of requeueing, so a
	// poison job cannot cycle through the fleet forever.
	MaxAttempts int
	// Store persists jobs and event logs for crash-restart resume (nil =
	// in-memory only). The manager recovers the store's jobs at startup;
	// the caller retains ownership and closes it after Shutdown.
	Store *store.Store
	// Cache is the shared artifact cache (nil builds a private unbounded
	// one). Daemons pass a bounded cache so identical submissions
	// singleflight while memory stays capped.
	Cache *sim.Cache
	// Registry receives the manager's metrics (nil builds a private one).
	Registry *metrics.Registry
	// Runner executes one job and returns its JSON report. Nil selects the
	// sim-backed runner; tests substitute a controllable stub.
	Runner Runner
	// Replay is the default for specs that leave replay unset: answer
	// re-submissions proven identical to a recorded run from its schedule
	// (bit-identical to full simulation).
	Replay bool
}

// Runner executes one running job under ctx, emitting events through job,
// and returns the job's final JSON report.
type Runner func(ctx context.Context, job *Job) (json.RawMessage, error)

// Manager owns the queue, the worker pool, the shared cache, and the job
// table.
type Manager struct {
	opts  Options
	root  context.Context
	stop  context.CancelFunc
	cache *sim.Cache
	reg   *metrics.Registry
	wg    sync.WaitGroup

	mu         sync.Mutex
	cond       *sync.Cond    // signals queue growth and close to dequeue()
	wake       chan struct{} // closed and replaced at enqueue and drain; parked LeaseJob calls wait on it
	queues     [3][]*Job     // one FIFO per priority class, indexed by classRank
	qclosed    bool
	jobs       map[string]*Job
	order      []string // submission order, for retention eviction
	nextID     int
	draining   bool
	tenantLive map[string]int      // live (non-terminal) jobs per tenant
	cancels    map[string][]string // pending cancel notices per worker

	mSubmitted      *metrics.Counter
	mRejected       *metrics.Counter
	mStates         map[State]*metrics.Counter
	mQueueDepth     *metrics.Gauge
	mClassDepth     map[string]*metrics.Gauge
	mInflight       *metrics.Gauge
	mLeasesActive   *metrics.Gauge
	mLeaseExpired   *metrics.Counter
	mRequeued       *metrics.Counter
	mSteals         *metrics.Counter
	mAffinity       *metrics.Counter
	mRecovered      *metrics.Counter
	mResumed        *metrics.Counter
	mStoreErrors    *metrics.Counter
	mTenantJobs     *metrics.CounterVec
	mTenantRejected *metrics.CounterVec
	mStage          map[string]*metrics.Histogram
	mQueueWait      *metrics.Histogram
	mTileActive     map[string]*metrics.Counter
	mTileStall      map[string]*metrics.Counter
	mTileInstrs     map[string]*metrics.Counter
}

// queueWaitBuckets resolve the sub-millisecond waits of an idle daemon or
// fleet (a job starts when it is queued) below the standard latency ladder.
var queueWaitBuckets = append([]float64{.0001, .00025, .0005, .001, .0025}, metrics.DefBuckets...)

// runStages names the instrumented pipeline stages, in order: artifact
// covers Compile→DDG→Trace (the cached layers), run covers
// BuildSystem→Run, report covers result marshalling.
var runStages = []string{"artifact", "run", "report"}

// NewManager builds a manager, registers its metrics, recovers any persisted
// jobs from the store, and starts its workers. Callers must Shutdown it to
// release them.
func NewManager(opts Options) *Manager {
	localWorkers := opts.Workers
	if localWorkers == 0 {
		localWorkers = runtime.GOMAXPROCS(0)
	}
	if localWorkers < 0 {
		localWorkers = 0 // coordinator mode: remote leases only
	}
	opts.Workers = localWorkers
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 4096
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.Cache == nil {
		opts.Cache = sim.NewCache()
	}
	if opts.Registry == nil {
		opts.Registry = metrics.NewRegistry()
	}
	root, stop := context.WithCancel(context.Background())
	m := &Manager{
		opts:       opts,
		root:       root,
		stop:       stop,
		cache:      opts.Cache,
		reg:        opts.Registry,
		jobs:       map[string]*Job{},
		tenantLive: map[string]int{},
		cancels:    map[string][]string{},
		wake:       make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	if m.opts.Runner == nil {
		m.opts.Runner = m.simRun
	}
	reg := m.reg
	m.mSubmitted = reg.Counter("mosaicd_jobs_submitted_total", "Jobs admitted to the queue.", nil)
	m.mRejected = reg.Counter("mosaicd_jobs_rejected_total", "Submissions shed by admission control (queue full, tenant quota, or draining).", nil)
	m.mStates = map[State]*metrics.Counter{}
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		m.mStates[st] = reg.Counter("mosaicd_jobs_total", "Job lifecycle transitions by entered state.", metrics.Labels{"state": string(st)})
	}
	m.mQueueDepth = reg.Gauge("mosaicd_queue_depth", "Jobs waiting in the admission queue.", nil)
	m.mClassDepth = map[string]*metrics.Gauge{}
	for _, p := range priorityClasses {
		m.mClassDepth[p] = reg.Gauge("mosaicd_queue_depth", "Jobs waiting in the admission queue.", metrics.Labels{"class": p})
	}
	m.mInflight = reg.Gauge("mosaicd_jobs_inflight", "Simulations currently running locally.", nil)
	m.mLeasesActive = reg.Gauge("mosaicd_leases_active", "Jobs currently leased to remote workers.", nil)
	m.mLeaseExpired = reg.Counter("mosaicd_leases_expired_total", "Leases that expired without completion (worker lost).", nil)
	m.mRequeued = reg.Counter("mosaicd_jobs_requeued_total", "Jobs returned to the queue after a lost lease.", nil)
	m.mSteals = reg.Counter("mosaicd_lease_steals_total", "Leases granted to a worker with no affinity match (work stealing).", nil)
	m.mAffinity = reg.Counter("mosaicd_lease_affinity_hits_total", "Leases granted to a worker already holding the job's artifacts.", nil)
	m.mRecovered = reg.Counter("mosaicd_jobs_recovered_total", "Terminal jobs reloaded from the store at startup.", nil)
	m.mResumed = reg.Counter("mosaicd_jobs_resumed_total", "Live jobs re-queued from the store at startup.", nil)
	m.mStoreErrors = reg.Counter("mosaicd_store_errors_total", "Persistence operations that failed (jobs continue in memory).", nil)
	m.mTenantJobs = reg.CounterVec("mosaicd_tenant_jobs_total", "Jobs admitted, by tenant.", "tenant", nil)
	m.mTenantRejected = reg.CounterVec("mosaicd_tenant_rejected_total", "Submissions shed by per-tenant quota.", "tenant", nil)
	m.mStage = map[string]*metrics.Histogram{}
	for _, stage := range runStages {
		m.mStage[stage] = reg.Histogram("mosaicd_stage_seconds", "Pipeline stage latency.", metrics.Labels{"stage": stage}, nil)
	}
	m.mQueueWait = reg.Histogram("mosaicd_queue_wait_seconds", "Time from submission to the start of execution (local dequeue or lease grant).", nil, queueWaitBuckets)
	// Per-tile-kind simulated-time breakdowns. The registry rejects lazy
	// duplicate registration, so every kind the tile registry can produce is
	// registered up front; kinds registered after startup (custom tile
	// factories) fold into "other".
	m.mTileActive = map[string]*metrics.Counter{}
	m.mTileStall = map[string]*metrics.Counter{}
	m.mTileInstrs = map[string]*metrics.Counter{}
	for _, kind := range append(soc.TileKinds(), "accel", "other") {
		l := metrics.Labels{"kind": kind}
		m.mTileActive[kind] = reg.Counter("mosaicd_tile_active_cycles_total", "Simulated active cycles by tile kind, summed over finished jobs.", l)
		m.mTileStall[kind] = reg.Counter("mosaicd_tile_stall_cycles_total", "Simulated stall cycles by tile kind, summed over finished jobs.", l)
		m.mTileInstrs[kind] = reg.Counter("mosaicd_tile_instrs_total", "Committed instructions by tile kind, summed over finished jobs.", l)
	}
	reg.CounterFunc("mosaicd_cache_hits_total", "Artifact-cache lookups served from cache (singleflight joins included).", nil,
		func() int64 { return m.cache.Counters().Hits })
	reg.CounterFunc("mosaicd_cache_misses_total", "Artifact-cache lookups that built.", nil,
		func() int64 { return m.cache.Counters().Misses })
	reg.CounterFunc("mosaicd_cache_evictions_total", "Artifact-cache LRU evictions.", nil,
		func() int64 { return m.cache.Counters().Evictions })
	reg.CounterFunc("mosaicd_replay_hits_total", "Runs answered analytically from a recorded timing schedule.", nil,
		func() int64 { return m.cache.ReplayCounters().Hits })
	reg.CounterFunc("mosaicd_replay_fallbacks_total", "Runs that found a schedule but fell back to full simulation (ineligible delta).", nil,
		func() int64 { return m.cache.ReplayCounters().Fallbacks })
	reg.CounterFunc("mosaicd_schedules_recorded_total", "Timing schedules captured and published to the cache.", nil,
		func() int64 { return m.cache.ReplayCounters().Recorded })
	reg.GaugeFunc("mosaicd_replay_hit_ratio", "Fraction of replay-attempted runs answered from a schedule (hits / (hits + fallbacks)).", nil,
		func() float64 {
			rc := m.cache.ReplayCounters()
			if rc.Hits+rc.Fallbacks == 0 {
				return 0
			}
			return float64(rc.Hits) / float64(rc.Hits+rc.Fallbacks)
		})
	if m.opts.Store != nil {
		m.recover()
	}
	for i := 0; i < localWorkers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Registry returns the manager's metrics registry (for /metrics handlers).
func (m *Manager) Registry() *metrics.Registry { return m.reg }

// Cache returns the shared artifact cache.
func (m *Manager) Cache() *sim.Cache { return m.cache }

// Draining reports whether shutdown has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// tenantLabel renders a tenant name for metrics ("" shows as "default").
func tenantLabel(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// Submit validates spec, admits it to the bounded priority queue, and
// returns the new job. It never blocks: a full queue sheds the submission
// with ErrQueueFull (wrapped with the configured depth), a tenant at quota
// sheds with ErrTenantQuota, and a draining manager rejects with
// ErrShuttingDown.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.mRejected.Inc()
		return nil, ErrShuttingDown
	}
	if q := m.opts.TenantQuota; q > 0 && m.tenantLive[spec.Tenant] >= q {
		m.mu.Unlock()
		m.mRejected.Inc()
		m.mTenantRejected.With(tenantLabel(spec.Tenant)).Inc()
		return nil, fmt.Errorf("%w: tenant %q has %d live jobs (quota %d)",
			ErrTenantQuota, tenantLabel(spec.Tenant), q, q)
	}
	if m.queueDepthLocked() >= m.opts.QueueDepth {
		m.mu.Unlock()
		m.mRejected.Inc()
		return nil, fmt.Errorf("%w (depth %d)", ErrQueueFull, m.opts.QueueDepth)
	}
	m.nextID++
	j := &Job{
		ID:        fmt.Sprintf("j%06d", m.nextID),
		Spec:      spec,
		affinity:  spec.AffinityHash(),
		state:     StateQueued,
		notify:    make(chan struct{}),
		submitted: time.Now().UTC(),
	}
	j.ctx, j.cancel = context.WithCancel(m.root)
	m.bindStore(j)
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.evictRecordsLocked()
	m.tenantLive[spec.Tenant]++
	m.mSubmitted.Inc()
	m.mTenantJobs.With(tenantLabel(spec.Tenant)).Inc()
	m.mStates[StateQueued].Inc()
	// Emit the queued edge before the job becomes poppable, so event logs
	// always open with it (seq 0) even if a worker grabs the job instantly.
	j.emit(Event{Type: "state", State: StateQueued})
	m.enqueueLocked(j, false)
	m.mu.Unlock()
	return j, nil
}

// evictRecordsLocked forgets the oldest terminal job records beyond
// MaxJobs, so a long-running daemon's job table stays bounded. Live jobs
// are never evicted.
func (m *Manager) evictRecordsLocked() {
	if len(m.jobs) <= m.opts.MaxJobs {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if j == nil {
			continue
		}
		if len(m.jobs) > m.opts.MaxJobs && j.State().Terminal() {
			delete(m.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j, nil
}

// List returns every retained job in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		if j := m.jobs[id]; j != nil {
			out = append(out, j)
		}
	}
	return out
}

// Cancel requests cancellation of a job and returns immediately — before
// the job's context error surfaces in its status. A queued job transitions
// to cancelled on the spot (it will never run); a locally running job's
// context is cancelled and the worker records the terminal state
// asynchronously; a leased job is marked cancelled at the coordinator and
// the holding worker learns through its next heartbeat (and ErrLeaseLost on
// any later report). Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) (*Job, error) {
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	j.mu.Lock()
	state, leased, worker := j.state, j.leased, j.leaseWorker
	j.mu.Unlock()
	removed := false
	if state == StateQueued {
		removed = m.removeQueuedLocked(j)
	}
	if leased {
		m.cancels[worker] = append(m.cancels[worker], j.ID)
	}
	m.mu.Unlock()
	if removed {
		m.finish(j, nil, StateCancelled, nil, nil, "cancelled before start")
	} else if leased {
		m.finish(j, nil, StateCancelled, context.Canceled, nil, "cancelled by client")
	}
	j.cancel()
	return j, nil
}

// finish moves j to a terminal state: it claims the transition under the
// job lock (checking the optional claim predicate there, so lease
// completion and expiry cannot race each other), updates tenant accounting
// and metrics, persists the report (done jobs, before the terminal edge so
// a crash between the two replays as still-running, never as
// done-without-report), emits the terminal event, and releases the store
// appender. It reports whether this call performed the transition.
func (m *Manager) finish(j *Job, claim func(*Job) bool, final State, err error, report json.RawMessage, note string) bool {
	j.mu.Lock()
	if j.state.Terminal() || (claim != nil && !claim(j)) {
		j.mu.Unlock()
		return false
	}
	wasLeased := j.leased
	j.leased = false
	j.state = final
	j.finished = time.Now().UTC()
	j.err = err
	if final == StateDone {
		j.report = report
	}
	j.mu.Unlock()
	m.mStates[final].Inc()
	if wasLeased {
		m.mLeasesActive.Add(-1)
	}
	m.mu.Lock()
	if m.tenantLive[j.Spec.Tenant]--; m.tenantLive[j.Spec.Tenant] <= 0 {
		delete(m.tenantLive, j.Spec.Tenant)
	}
	m.mu.Unlock()
	if st := m.opts.Store; st != nil && j.digest != "" && final == StateDone {
		if perr := st.PutReport(j.digest, report); perr != nil {
			m.mStoreErrors.Inc()
		}
	}
	ev := Event{Type: "state", State: final}
	if note != "" {
		ev.Error = note
	} else if err != nil {
		ev.Error = err.Error()
	}
	j.emit(ev)
	if st := m.opts.Store; st != nil && j.digest != "" {
		st.CloseJob(j.digest)
	}
	return true
}

// worker drains the queue until Shutdown closes it.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.dequeue()
		if j == nil {
			return
		}
		m.runJob(j)
	}
}

// runJob drives one dequeued job through running to a terminal state.
func (m *Manager) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while queued: never run it.
		j.mu.Unlock()
		return
	}
	if err := j.ctx.Err(); err != nil {
		j.mu.Unlock()
		m.finish(j, nil, StateCancelled, nil, nil, "cancelled before start")
		return
	}
	j.state = StateRunning
	j.started = time.Now().UTC()
	j.attempts++
	wait := j.started.Sub(j.submitted)
	j.mu.Unlock()
	m.mQueueWait.Observe(wait.Seconds())
	m.mStates[StateRunning].Inc()
	m.mInflight.Add(1)
	defer m.mInflight.Add(-1)
	j.emit(Event{Type: "state", State: StateRunning})

	ctx := j.ctx
	budget := m.opts.JobTimeout
	if d := j.Spec.timeout(); d > 0 && (budget == 0 || d < budget) {
		budget = d
	}
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	report, err := m.opts.Runner(ctx, j)

	switch {
	case err == nil:
		m.finish(j, nil, StateDone, nil, report, "")
	case errors.Is(err, context.Canceled):
		m.finish(j, nil, StateCancelled, err, nil, "")
	default:
		m.finish(j, nil, StateFailed, err, nil, "")
	}
}

// simRun is the production Runner: it lowers the spec onto a sim.Session
// bound to the shared cache, runs the pipeline stage by stage, and emits
// stage events (with cache attribution), throttled progress events, and
// stage-latency metrics along the way. Its report is exactly
// json.Marshal(soc.Result) — byte-identical to what the CLI/Session path
// produces for the same submission.
func (m *Manager) simRun(ctx context.Context, j *Job) (json.RawMessage, error) {
	opts, err := j.Spec.SessionOptions(m.cache)
	if err != nil {
		return nil, err
	}
	if j.Spec.Replay == nil {
		opts.Replay = m.opts.Replay
	}
	// Progress events: at most ~10/s regardless of simulation speed, except
	// the terminal update, which always goes out (it carries the run's final
	// cycle position). The hook runs on the simulating goroutine, so
	// lastTick needs no lock.
	var lastTick time.Time
	opts.Progress = func(u soc.ProgressUpdate) {
		now := time.Now()
		if !u.Final && now.Sub(lastTick) < 100*time.Millisecond {
			return
		}
		lastTick = now
		j.emit(Event{Type: "progress", Cycle: u.Cycle, Stepped: u.Stepped, Skipped: u.Skipped, Final: u.Final})
	}
	s, err := sim.NewSession(opts)
	if err != nil {
		return nil, err
	}
	hit := m.cache.HasArtifact(s.Key())
	t0 := time.Now()
	if _, err := s.Artifact(ctx); err != nil {
		return nil, err
	}
	d := time.Since(t0).Seconds()
	m.mStage["artifact"].Observe(d)
	j.emit(Event{Type: "stage", Stage: "artifact", CacheHit: &hit, Seconds: d})

	t0 = time.Now()
	res, err := s.Run(ctx)
	if err != nil {
		return nil, err
	}
	d = time.Since(t0).Seconds()
	m.mStage["run"].Observe(d)
	// A replayed run has no live system behind it: stepped/skipped come
	// from the replay outcome and there is no per-tile breakdown to
	// observe (the result is bit-identical to a full run regardless).
	stepped, skipped := s.Replay().Stepped, s.Replay().Skipped
	if sys := s.System(); sys != nil {
		stepped, skipped = sys.SteppedCycles, sys.SkippedCycles
		m.observeTiles(sys.TileBreakdown())
	}
	j.emit(Event{Type: "stage", Stage: "run", Seconds: d,
		Cycle: res.Cycles, Stepped: stepped, Skipped: skipped})

	t0 = time.Now()
	report, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	d = time.Since(t0).Seconds()
	m.mStage["report"].Observe(d)
	j.emit(Event{Type: "stage", Stage: "report", Seconds: d})
	return report, nil
}

// observeTiles folds one finished run's per-kind breakdown into the tile
// metrics. Kinds outside the startup registration set land in "other".
func (m *Manager) observeTiles(bs []soc.KindBreakdown) {
	for _, b := range bs {
		k := b.Kind
		if _, ok := m.mTileActive[k]; !ok {
			k = "other"
		}
		m.mTileActive[k].Add(b.ActiveCycles)
		m.mTileStall[k].Add(b.StallCycles)
		m.mTileInstrs[k].Add(b.Instrs)
	}
}

// Shutdown drains the manager: admission closes immediately
// (ErrShuttingDown), still-queued jobs are cancelled without running, and
// running jobs — local and leased — get until ctx's deadline to finish
// before their contexts are cancelled (leased jobs are marked cancelled at
// the coordinator; their workers learn via ErrLeaseLost). It returns nil on
// a clean drain, or ctx's error if the deadline forced cancellation.
// Shutdown is idempotent only in effect — call it once.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.draining = true
	// Pop everything still queued: a drain finishes what is running, it
	// does not start new work.
	var queued []*Job
	for {
		j := m.popLocked()
		if j == nil {
			break
		}
		queued = append(queued, j)
	}
	m.qclosed = true
	m.cond.Broadcast()
	m.wakeLocked()
	m.mu.Unlock()
	for _, j := range queued {
		m.finish(j, nil, StateCancelled, nil, nil, "cancelled before start")
		j.cancel()
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("jobs: drain deadline hit, cancelling in-flight jobs: %w", ctx.Err())
		m.stop() // cancels every per-job context through the root
		<-done
	}
	// Remote leases share the deadline: wait for workers to complete their
	// jobs, then cancel whatever is still out.
	for m.mLeasesActive.Value() > 0 {
		select {
		case <-ctx.Done():
			if err == nil {
				err = fmt.Errorf("jobs: drain deadline hit, cancelling leased jobs: %w", ctx.Err())
			}
			m.mu.Lock()
			leased := make([]*Job, 0)
			for _, j := range m.jobs {
				j.mu.Lock()
				if j.leased {
					leased = append(leased, j)
				}
				j.mu.Unlock()
			}
			m.mu.Unlock()
			for _, j := range leased {
				m.finish(j, nil, StateCancelled, context.Canceled, nil, "cancelled at shutdown")
				j.cancel()
			}
		case <-time.After(20 * time.Millisecond):
		}
	}
	m.stop()
	return err
}
