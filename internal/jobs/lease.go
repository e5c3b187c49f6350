package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"
)

// This file is the manager's half of the lease protocol, the one way a job
// starts. An executor leases a queued job, forwards stage/progress events
// while running it, and completes with the report; a remote one
// (internal/cluster) also renews the lease through heartbeats. The manager
// owns every lifecycle edge — executors only ever contribute stage and
// progress events — so one process decides each job's history and the
// persisted log stays a single total order. A lease that outlives its TTL
// is presumed lost (worker SIGKILL, partition): the job requeues at the
// front of its class, bounded by MaxAttempts so a poison job cannot cycle
// through the fleet forever.

// Lease is one granted execution claim on a job.
type Lease struct {
	JobID string `json:"jobId"`
	Spec  Spec   `json:"spec"`
	// Affinity is the job's artifact-affinity hash. Workers remember the
	// hashes of jobs they have executed and send them with lease requests,
	// so the coordinator can route repeat work to warm caches.
	Affinity uint64 `json:"affinity"`
	// Attempt numbers this execution (1-based across requeues).
	Attempt int `json:"attempt"`
	// Expires is when the lease lapses unless renewed.
	Expires time.Time `json:"expires"`
}

// LeaseJob grants worker a lease on one queued job, preferring a job whose
// affinity hash the worker already holds (warm trace/schedule caches) and
// otherwise stealing the front of the highest-priority class. When nothing
// is queued it parks until a job is enqueued or requeued, the manager starts
// draining, or ctx ends, and then returns nil; a ctx that is already done
// makes it a single look at the queue.
func (m *Manager) LeaseJob(ctx context.Context, worker string, affinity []uint64, ttl time.Duration) *Lease {
	lease, _ := m.lease(ctx, worker, affinity, ttl)
	return lease
}

// lease is LeaseJob for callers in this package, which also get the job.
func (m *Manager) lease(ctx context.Context, worker string, affinity []uint64, ttl time.Duration) (*Lease, *Job) {
	for {
		m.mu.Lock()
		if m.draining {
			m.mu.Unlock()
			return nil, nil
		}
		// The wake channel is read under the lock the look runs under and
		// every enqueue closes it under: no enqueue can fall between them.
		wake := m.wake
		lease, j := m.grantLocked(worker, affinity, ttl)
		m.mu.Unlock()
		if lease != nil {
			return lease, j
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, nil
		}
	}
}

// grantLocked is the one place a job starts running: it claims the best
// queued job for worker (nil when nothing is queued) and grants the lease by
// appending the running edge.
func (m *Manager) grantLocked(worker string, affinity []uint64, ttl time.Duration) (*Lease, *Job) {
	var (
		j      *Job
		affine bool
	)
	for {
		j, affine = m.popAffineLocked(affinity)
		if j == nil {
			return nil, nil
		}
		j.mu.Lock()
		if j.state == StateQueued {
			break // claim it below, still holding j.mu
		}
		j.mu.Unlock() // raced with a cancel: skip and keep popping
	}
	j.leaseExpiry = time.Now().Add(ttl)
	j.appendLocked(Event{Type: "state", State: StateRunning, Worker: worker, Attempt: j.attempts + 1})
	lease := &Lease{
		JobID:    j.ID,
		Spec:     j.Spec,
		Affinity: j.affinity,
		Attempt:  j.attempts,
		Expires:  j.leaseExpiry,
	}
	wait := j.started.Sub(j.submitted)
	j.mu.Unlock()
	m.mQueueWait.Observe(wait.Seconds())
	m.mStates[StateRunning].Inc()
	m.mLeasesActive.Add(1)
	if affine {
		m.mAffinity.Inc()
	} else if len(affinity) > 0 {
		m.mSteals.Inc()
	}
	return lease, j
}

// popAffineLocked removes and returns the best queued job for a worker
// holding the given affinity hashes: the first match scanning classes in
// priority order, else the plain front of the queue (a steal). The second
// result reports whether the pick was an affinity match.
func (m *Manager) popAffineLocked(affinity []uint64) (*Job, bool) {
	if len(affinity) > 0 {
		for c := range m.queues {
			for i, j := range m.queues[c] {
				if slices.Contains(affinity, j.affinity) {
					m.queues[c] = append(m.queues[c][:i], m.queues[c][i+1:]...)
					m.noteDepthLocked()
					return j, true
				}
			}
		}
	}
	return m.popLocked(), false
}

// heldByLocked is the claim predicate of the lease protocol: worker holds
// j's lease and the job is still running. The caller holds j.mu.
func (j *Job) heldByLocked(worker string) bool {
	return j.state == StateRunning && j.leaseWorker == worker
}

// RenewLease extends worker's lease on id by ttl. ErrLeaseLost means the
// lease expired (the job requeued or finished elsewhere) or the job was
// cancelled; the worker must abandon the run.
func (m *Manager) RenewLease(id, worker string, ttl time.Duration) error {
	j, err := m.Get(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.heldByLocked(worker) {
		return fmt.Errorf("%w: job %s is not leased to %q", ErrLeaseLost, id, worker)
	}
	j.leaseExpiry = time.Now().Add(ttl)
	return nil
}

// AppendRemote appends a batch of stage and progress events from the lease
// holder's run to the job's event log (and stage metrics), in order and
// under one hold of the job lock. Lifecycle edges are rejected: the manager
// emits its own.
func (m *Manager) AppendRemote(id, worker string, evs []Event) error {
	for _, e := range evs {
		if e.Type == "state" {
			return errors.New("jobs: workers do not emit lifecycle edges")
		}
	}
	j, err := m.Get(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if !j.heldByLocked(worker) {
		j.mu.Unlock()
		return fmt.Errorf("%w: job %s is not leased to %q", ErrLeaseLost, id, worker)
	}
	for _, e := range evs {
		// Only the payload crosses over: seq and time are stamped here so the
		// log stays a single total order, and lifecycle fields are not a
		// worker's to set.
		e.State, e.Error, e.Worker, e.Attempt = "", "", "", 0
		j.appendLocked(e)
	}
	j.mu.Unlock()
	m.mStage.observe(evs...)
	return nil
}

// CompleteLease finishes a leased job: done with the executor's report, or
// failed with runErr. The claim check runs under the job lock, so a
// completion racing lease expiry resolves to exactly one outcome; the loser
// gets ErrLeaseLost.
func (m *Manager) CompleteLease(id, worker string, report json.RawMessage, runErr error) error {
	j, err := m.Get(id)
	if err != nil {
		return err
	}
	final, note := StateDone, ""
	if runErr != nil {
		final, report, note = StateFailed, nil, runErr.Error()
	}
	claim := func(j *Job) bool { return j.heldByLocked(worker) }
	if !m.finish(j, claim, final, report, note) {
		return fmt.Errorf("%w: job %s is not leased to %q", ErrLeaseLost, id, worker)
	}
	return nil
}

// ExpireLeases requeues (or, past MaxAttempts, fails) every running job
// whose lease lapsed before now. A requeued job goes to the front of its
// class so the latency already paid is not paid twice. The coordinator calls
// this periodically.
func (m *Manager) ExpireLeases(now time.Time) {
	for _, j := range m.List() {
		j.mu.Lock()
		worker, attempts := j.leaseWorker, j.attempts
		due := j.state == StateRunning && now.After(j.leaseExpiry)
		j.mu.Unlock()
		if !due {
			continue
		}
		// The claim: the same lease, still lapsed when the edge is appended.
		lapsed := func(j *Job) bool {
			return j.heldByLocked(worker) && j.attempts == attempts && now.After(j.leaseExpiry)
		}
		var expired bool
		if attempts < m.opts.MaxAttempts {
			expired = m.requeue(j, lapsed, "lease expired; requeued")
		} else {
			expired = m.finish(j, lapsed, StateFailed, nil,
				fmt.Sprintf("jobs: lease expired on worker %q after %d attempts", worker, attempts))
		}
		if expired {
			m.mLeaseExpired.Inc()
		}
	}
}

// ReturnLease hands back a lease that never reached its worker (the request
// was gone by the time the grant was made, or the response could not be
// written): the job requeues at the front of its class at once instead of
// waiting out the lease TTL. It reports whether worker still held the lease.
func (m *Manager) ReturnLease(id, worker string) bool {
	j, err := m.Get(id)
	if err != nil {
		return false
	}
	return m.requeue(j, func(j *Job) bool { return j.heldByLocked(worker) }, "lease undelivered; requeued")
}

// requeue returns a leased, running job to the front of its class queue, or
// cancels it when the manager is draining: if claim holds, it appends the
// queued edge (and then the cancelled one) under one hold of the job lock,
// inside the manager lock the enqueue needs, so no other transition falls
// between the edge and the queue. It reports whether claim held.
func (m *Manager) requeue(j *Job, claim func(*Job) bool, note string) bool {
	m.mu.Lock()
	j.mu.Lock()
	if !claim(j) {
		j.mu.Unlock()
		m.mu.Unlock()
		return false
	}
	j.appendLocked(Event{Type: "state", State: StateQueued, Worker: j.leaseWorker, Attempt: j.attempts, Error: note})
	draining := m.draining
	if draining {
		j.appendLocked(Event{Type: "state", State: StateCancelled, Error: "cancelled before start"})
	}
	j.mu.Unlock()
	if !draining {
		m.leaseEndedLocked()
		m.enqueueLocked(j, true)
	}
	m.mu.Unlock()
	m.mRequeued.Inc()
	m.mStates[StateQueued].Inc()
	if draining {
		m.settle(j, StateCancelled, true)
	}
	return true
}

// LocalWorker names the in-process executor on its jobs' lifecycle edges.
const LocalWorker = "local"

// localTTL outlives any run: in-process leases are never renewed or expired.
const localTTL = 100 * 365 * 24 * time.Hour

// Local returns the manager as the in-process LeaseSource of a standalone
// daemon: plain calls instead of HTTP, no heartbeat, and the job's own
// context — which ends with the job's terminal edge — as the run's abort
// signal.
func (m *Manager) Local() LeaseSource { return localSource{m} }

type localSource struct{ m *Manager }

func (s localSource) Lease(ctx context.Context) (*Lease, context.Context) {
	l, j := s.m.lease(ctx, LocalWorker, nil, localTTL)
	if l == nil {
		return nil, nil
	}
	return l, j.ctx
}

// Event and Complete drop ErrLeaseLost: the run's context is already done.
func (s localSource) Event(l *Lease, e Event) {
	_ = s.m.AppendRemote(l.JobID, LocalWorker, []Event{e})
}

func (s localSource) Complete(l *Lease, report json.RawMessage, err error) {
	_ = s.m.CompleteLease(l.JobID, LocalWorker, report, err)
}
