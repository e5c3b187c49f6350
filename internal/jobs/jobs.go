// Package jobs is MosaicSim-Go's simulation job service substrate, in two
// halves joined by the lease protocol (lease.go).
//
// The Manager admits: each submitted Spec becomes a Job with an ID and a
// lifecycle state machine
//
//	queued → running → done | failed | cancelled
//
// whose every edge the manager decides; it never runs a job. Admission
// control is explicit: the queue is bounded and class-prioritised,
// per-tenant quotas cap any one client's live jobs, and a submission past
// either bound is shed immediately (ErrQueueFull, ErrTenantQuota) instead of
// growing memory without limit. Every lifecycle edge, stage transition, and
// progress tick is published as a per-job event stream (for live observers),
// as metrics (internal/metrics) for scraping, and — when a store is attached
// — as an append-only NDJSON log (internal/store) that survives restarts.
//
// A job's state is its event log. Appending an event is the one mutation:
// Job.apply folds each appended event into the fields Status reports (state,
// start and finish times, attempts, lease holder, error), and recovery folds
// the persisted lines through the same apply, so a job reads the same live
// and after a restart. Each transition checks its claim and appends its edge
// under one hold of the job lock.
//
// The Executor (exec.go) runs: its lease loop asks a LeaseSource for work,
// runs each lease on the session engine (internal/sim) through one shared
// sim.Cache, and reports events and the outcome back. A lease is the only
// way a job starts: a standalone daemon points the loop at its own manager
// (Manager.Local); a fleet worker points it at a coordinator over HTTP
// (internal/cluster) and has no manager at all.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"mosaicsim/internal/metrics"
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
	// ErrLeaseLost tells an executor its lease is no longer valid (it
	// expired and the job was requeued, or the job was cancelled). The
	// executor must stop reporting for that job.
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
	// Worker and Attempt appear on the lifecycle edges a lease causes: which
	// executor held it (LocalWorker for the in-process one), and which
	// execution attempt this is.
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
	// Attempts counts leases granted; >1 means the job was requeued after a
	// lost lease or a daemon restart.
	Attempts int `json:"attempts,omitempty"`
	// Worker names the executor holding (or last holding) the lease.
	Worker string `json:"worker,omitempty"`
}

// Job is one submission moving through the lifecycle. All mutable state is
// guarded by mu; the event log is append-only and notify is closed and
// replaced on every append, so observers wait without polling.
type Job struct {
	ID   string
	Spec Spec // normalized

	ctx    context.Context // live jobs only; ended by settle. An in-process run's abort signal
	cancel context.CancelFunc

	digest   string            // content address in the store ("" = not persisted)
	persist  func(line []byte) // appends one event line to the store (nil = none)
	affinity uint64            // Spec.AffinityHash(), computed once at admission

	mu          sync.Mutex
	events      []Event
	notify      chan struct{}
	submitted   time.Time
	report      json.RawMessage // done jobs: stored just before the done edge
	leaseExpiry time.Time       // lease deadline; past it the job is requeueable

	// The fold of events: apply is their only writer.
	state       State
	started     time.Time // the last running edge's time
	finished    time.Time // the terminal edge's time
	attempts    int
	leaseWorker string // current (or last) lease holder; holds it exactly while running
	errMsg      string // the terminal edge's error
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
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
		Error:     j.errMsg,
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
	return st
}

// apply folds one event of j's log into its derived fields: lifecycle edges
// move them, other events do not, and nothing moves a job past its terminal
// edge. It runs for every live append and for every line recovery replays,
// so a job and its reload from the store agree field for field.
func (j *Job) apply(e Event) {
	if e.Type != "state" || j.state.Terminal() {
		return
	}
	j.state = e.State
	switch {
	case e.State == StateRunning:
		j.started = e.Time
		j.leaseWorker = e.Worker
		// Logs written before leases numbered attempts carry none.
		j.attempts = max(e.Attempt, j.attempts+1)
	case e.State.Terminal():
		j.finished = e.Time
		j.errMsg = e.Error
	}
}

// appendLocked appends one event (stamping its sequence number and time),
// folds it into the job, persists it if a store is attached, and wakes every
// waiting observer. Persisting under the job lock keeps the on-disk log in
// exact append order.
func (j *Job) appendLocked(e Event) {
	e.Seq = len(j.events)
	e.Time = time.Now().UTC()
	j.events = append(j.events, e)
	j.apply(e)
	close(j.notify)
	j.notify = make(chan struct{})
	if j.persist != nil {
		if line, err := json.Marshal(e); err == nil {
			j.persist(line)
		}
	}
}

// EventsSince returns the events with sequence >= after, a channel closed
// when the log next grows, and whether the stream is complete: the log holds
// its terminal edge (state, the log's fold, turns terminal in that append)
// and every event has been returned. Asking the fold rather than the last
// event keeps finite the recovered logs older builds wrote with a line after
// the terminal edge. Observers loop: drain, then wait on the channel (or
// their own context) unless done.
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
	// QueueDepth bounds the admission queue; submissions beyond it shed
	// with ErrQueueFull (default 64).
	QueueDepth int
	// MaxJobs bounds retained job records: beyond it, the oldest terminal
	// jobs are forgotten (default 4096; their IDs then return ErrNotFound).
	MaxJobs int
	// TenantQuota caps each tenant's live (queued + running) jobs; 0
	// disables per-tenant quotas.
	TenantQuota int
	// MaxAttempts bounds execution attempts per job (default 3): a job
	// whose lease expires at the bound fails instead of requeueing, so a
	// poison job cannot cycle through the fleet forever.
	MaxAttempts int
	// Store persists jobs and event logs for crash-restart resume (nil =
	// in-memory only). The manager recovers the store's jobs at startup;
	// the caller retains ownership and closes it after Shutdown.
	Store *store.Store
	// Registry receives the manager's metrics (nil builds a private one).
	Registry *metrics.Registry
}

// Manager owns admission, the class queues, the job table, the store
// binding, and the lease protocol. It executes nothing: every job starts as
// a lease granted to an Executor's loop, here or in a fleet worker.
type Manager struct {
	opts Options

	mu         sync.Mutex
	wake       chan struct{} // closed and replaced at enqueue and drain; parked LeaseJob calls wait on it
	drained    chan struct{} // closed once draining with no lease outstanding
	queues     [3][]*Job     // one FIFO per priority class, indexed by classRank
	jobs       map[string]*Job
	order      []string // submission order, for retention eviction
	nextID     int
	draining   bool
	tenantLive map[string]int // live (non-terminal) jobs per tenant

	mSubmitted      *metrics.Counter
	mRejected       *metrics.Counter
	mStates         map[State]*metrics.Counter
	mQueueDepth     *metrics.Gauge
	mClassDepth     map[string]*metrics.Gauge
	mLeasesActive   *metrics.Gauge // written under mu, so Shutdown's look at it is exact
	mLeaseExpired   *metrics.Counter
	mRequeued       *metrics.Counter
	mSteals         *metrics.Counter
	mAffinity       *metrics.Counter
	mRecovered      *metrics.Counter
	mResumed        *metrics.Counter
	mStoreErrors    *metrics.Counter
	mTenantJobs     *metrics.CounterVec
	mTenantRejected *metrics.CounterVec
	mStage          stageSeconds
	mQueueWait      *metrics.Histogram
}

// queueWaitBuckets resolve the sub-millisecond waits of an idle daemon or
// fleet (a job starts when it is queued) below the standard latency ladder.
var queueWaitBuckets = append([]float64{.0001, .00025, .0005, .001, .0025}, metrics.DefBuckets...)

// runStages names the instrumented pipeline stages, in order: artifact
// covers Compile→DDG→Trace (the cached layers), run covers
// BuildSystem→Run, report covers result marshalling.
var runStages = []string{"artifact", "run", "report"}

// stageSeconds is the mosaicd_stage_seconds family, one histogram per
// pipeline stage. A process has it once, observed where its runs' stage
// events land: a manager's AppendRemote, else (a fleet worker has no manager)
// the executor's own emit.
type stageSeconds map[string]*metrics.Histogram

// newStageSeconds registers the family on reg.
func newStageSeconds(reg *metrics.Registry) stageSeconds {
	s := stageSeconds{}
	for _, stage := range runStages {
		s[stage] = reg.Histogram("mosaicd_stage_seconds", "Pipeline stage latency.", metrics.Labels{"stage": stage}, nil)
	}
	return s
}

// observe records the stage events among evs.
func (s stageSeconds) observe(evs ...Event) {
	for _, e := range evs {
		if h := s[e.Stage]; h != nil && e.Type == "stage" {
			h.Observe(e.Seconds)
		}
	}
}

// NewManager builds a manager, registers its metrics, and recovers any
// persisted jobs from the store. Callers must Shutdown it.
func NewManager(opts Options) *Manager {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 4096
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.Registry == nil {
		opts.Registry = metrics.NewRegistry()
	}
	m := &Manager{
		opts:       opts,
		jobs:       map[string]*Job{},
		tenantLive: map[string]int{},
		wake:       make(chan struct{}),
		drained:    make(chan struct{}),
	}
	reg := opts.Registry
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
	m.mLeasesActive = reg.Gauge("mosaicd_leases_active", "Jobs currently leased to an executor.", nil)
	m.mLeaseExpired = reg.Counter("mosaicd_leases_expired_total", "Leases that expired without completion (worker lost).", nil)
	m.mRequeued = reg.Counter("mosaicd_jobs_requeued_total", "Jobs returned to the queue after a lost lease.", nil)
	m.mSteals = reg.Counter("mosaicd_lease_steals_total", "Leases granted to a worker with no affinity match (work stealing).", nil)
	m.mAffinity = reg.Counter("mosaicd_lease_affinity_hits_total", "Leases granted to a worker already holding the job's artifacts.", nil)
	m.mRecovered = reg.Counter("mosaicd_jobs_recovered_total", "Terminal jobs reloaded from the store at startup.", nil)
	m.mResumed = reg.Counter("mosaicd_jobs_resumed_total", "Live jobs re-queued from the store at startup.", nil)
	m.mStoreErrors = reg.Counter("mosaicd_store_errors_total", "Persistence operations that failed (jobs continue in memory).", nil)
	m.mTenantJobs = reg.CounterVec("mosaicd_tenant_jobs_total", "Jobs admitted, by tenant.", "tenant", nil)
	m.mTenantRejected = reg.CounterVec("mosaicd_tenant_rejected_total", "Submissions shed by per-tenant quota.", "tenant", nil)
	m.mStage = newStageSeconds(reg)
	m.mQueueWait = reg.Histogram("mosaicd_queue_wait_seconds", "Time from submission to the start of execution (the lease grant).", nil, queueWaitBuckets)
	if m.opts.Store != nil {
		m.recover()
	}
	return m
}

// Registry returns the manager's metrics registry (for /metrics handlers).
func (m *Manager) Registry() *metrics.Registry { return m.opts.Registry }

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
		notify:    make(chan struct{}),
		submitted: time.Now().UTC(),
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	m.bindStore(j)
	// The queued edge opens the log (seq 0) before anything can see the job:
	// m.mu is held until it is in the table and the queue. Unlocked, j is
	// not shared yet.
	j.appendLocked(Event{Type: "state", State: StateQueued})
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.evictRecordsLocked()
	m.tenantLive[spec.Tenant]++
	m.mSubmitted.Inc()
	m.mTenantJobs.With(tenantLabel(spec.Tenant)).Inc()
	m.mStates[StateQueued].Inc()
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

// Cancel decides the cancellation here and now: when it returns the job is
// cancelled (a queued job will never run; a running job's lease is void, so
// what its executor reports later bounces with ErrLeaseLost). The run
// unwinds afterwards — an in-process run's context is already done, a fleet
// worker learns from the 409 on its next event or heartbeat — and frees its
// executor slot when it has. Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) (*Job, error) {
	j, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	m.finish(j, nil, StateCancelled, nil, "cancelled by client: "+context.Canceled.Error())
	return j, nil
}

// finish appends j's terminal edge, in one hold of the job lock with the
// check of the optional claim predicate (so lease completion, expiry and
// cancellation resolve to exactly one outcome), and then settles the job.
// A done job's report is stored first, so a crash between the two replays
// as still-running, never as done without a report. A job cancelled while
// queued ends "cancelled before start", whatever note says. It reports
// whether this call performed the transition.
func (m *Manager) finish(j *Job, claim func(*Job) bool, final State, report json.RawMessage, note string) bool {
	j.mu.Lock()
	if j.state.Terminal() || (claim != nil && !claim(j)) {
		j.mu.Unlock()
		return false
	}
	wasLeased := j.state == StateRunning
	if !wasLeased {
		note = "cancelled before start"
	}
	if final == StateDone {
		if st := m.opts.Store; st != nil && j.digest != "" && st.PutReport(j.digest, report) != nil {
			m.mStoreErrors.Inc()
		}
		j.report = report
	}
	j.appendLocked(Event{Type: "state", State: final, Error: note})
	j.mu.Unlock()
	m.settle(j, final, wasLeased)
	return true
}

// settle accounts for j's terminal edge once the job lock is released: the
// state counter, the store appender, the job's context (the abort signal of
// an in-process run), the queue slot of a job cancelled while queued, the
// tenant's live count, and the lease the job held — last, so a drain waiting
// on that lease returns only once the job's log and report are on disk.
func (m *Manager) settle(j *Job, final State, wasLeased bool) {
	m.mStates[final].Inc()
	if st := m.opts.Store; st != nil && j.digest != "" {
		st.CloseJob(j.digest)
	}
	j.cancel()
	m.mu.Lock()
	defer m.mu.Unlock()
	if !wasLeased {
		m.removeQueuedLocked(j)
	}
	if m.tenantLive[j.Spec.Tenant]--; m.tenantLive[j.Spec.Tenant] <= 0 {
		delete(m.tenantLive, j.Spec.Tenant)
	}
	if wasLeased {
		m.leaseEndedLocked()
	}
}

// leaseEndedLocked accounts for one lease finished or handed back, and
// releases a drain that was waiting for the last one.
func (m *Manager) leaseEndedLocked() {
	m.mLeasesActive.Add(-1)
	if m.draining && m.mLeasesActive.Value() == 0 {
		close(m.drained)
	}
}

// Shutdown drains the manager: admission closes immediately
// (ErrShuttingDown), still-queued jobs are cancelled without running, parked
// lease requests are answered "nothing", and outstanding leases get until
// ctx's deadline to complete before their jobs are cancelled. It returns nil
// on a clean drain, or ctx's error if the deadline forced cancellation; it
// does not wait for cancelled runs to unwind (whoever drives the executor
// does). A second call only waits for the first.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		<-m.drained
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
	m.wakeLocked()
	if m.mLeasesActive.Value() == 0 {
		close(m.drained)
	}
	m.mu.Unlock()
	for _, j := range queued {
		m.finish(j, nil, StateCancelled, nil, "")
	}
	var err error
	select {
	case <-m.drained:
	case <-ctx.Done():
		err = fmt.Errorf("jobs: drain deadline hit, cancelling in-flight jobs: %w", ctx.Err())
		for _, j := range m.List() {
			m.finish(j, func(j *Job) bool { return j.state == StateRunning }, StateCancelled, nil, "cancelled at shutdown: "+context.Canceled.Error())
		}
		<-m.drained
	}
	return err
}
