package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// This file is the coordinator half of the fleet lease protocol. A remote
// worker (internal/cluster) leases a queued job, renews the lease through
// heartbeats while executing, forwards stage/progress events, and completes
// with the report. The coordinator owns every lifecycle edge — workers only
// ever contribute stage and progress events — so one process decides each
// job's history and the persisted log stays a single total order. A lease
// that outlives its TTL is presumed lost (worker SIGKILL, partition): the
// job requeues at the front of its class, bounded by MaxAttempts so a
// poison job cannot cycle through the fleet forever.

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
// draining, or ctx ends, and then returns (nil, false); a ctx that is
// already done makes it a single look at the queue.
func (m *Manager) LeaseJob(ctx context.Context, worker string, affinity map[uint64]bool, ttl time.Duration) (*Lease, bool) {
	if worker == "" || ttl <= 0 {
		return nil, false
	}
	for {
		m.mu.Lock()
		if m.draining {
			m.mu.Unlock()
			return nil, false
		}
		// The wake channel is read under the lock the look runs under and
		// every enqueue closes it under: no enqueue can fall between them.
		wake := m.wake
		lease := m.grantLocked(worker, affinity, ttl)
		m.mu.Unlock()
		if lease != nil {
			return lease, true
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, false
		}
	}
}

// grantLocked is the one place a lease is granted: it claims the best queued
// job for worker (nil when nothing is queued) and starts its execution.
func (m *Manager) grantLocked(worker string, affinity map[uint64]bool, ttl time.Duration) *Lease {
	var (
		j      *Job
		affine bool
	)
	for {
		j, affine = m.popAffineLocked(affinity)
		if j == nil {
			return nil
		}
		j.mu.Lock()
		if j.state == StateQueued {
			break // claim it below, still holding j.mu
		}
		j.mu.Unlock() // raced with a cancel: skip and keep popping
	}
	j.state = StateRunning
	j.started = time.Now().UTC()
	j.attempts++
	j.leased = true
	j.leaseWorker = worker
	j.leaseExpiry = time.Now().Add(ttl)
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
	j.emit(Event{Type: "state", State: StateRunning, Worker: worker, Attempt: lease.Attempt})
	return lease
}

// popAffineLocked removes and returns the best queued job for a worker
// holding the given affinity hashes: the first match scanning classes in
// priority order, else the plain front of the queue (a steal). The second
// result reports whether the pick was an affinity match.
func (m *Manager) popAffineLocked(affinity map[uint64]bool) (*Job, bool) {
	if len(affinity) > 0 {
		for c := range m.queues {
			for i, j := range m.queues[c] {
				if affinity[j.affinity] {
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
	return j.leased && j.leaseWorker == worker && j.state == StateRunning
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

// AppendRemote forwards a batch of stage and progress events from the leased
// worker's local run into the coordinator's event log (and stage metrics),
// in order and under one hold of the job lock. Lifecycle edges are rejected:
// the coordinator emits its own.
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
		// Re-stamp: only the payload fields cross the wire; seq and time are
		// assigned here so the log stays a single total order.
		j.appendLocked(Event{
			Type:     e.Type,
			Stage:    e.Stage,
			CacheHit: e.CacheHit,
			Seconds:  e.Seconds,
			Cycle:    e.Cycle,
			Stepped:  e.Stepped,
			Skipped:  e.Skipped,
			Final:    e.Final,
		})
	}
	j.mu.Unlock()
	for _, e := range evs {
		if e.Type == "stage" {
			if h := m.mStage[e.Stage]; h != nil {
				h.Observe(e.Seconds)
			}
		}
	}
	return nil
}

// CompleteLease finishes a leased job: done with the worker's report, or
// failed with its error message. The claim check runs under the job lock,
// so a completion racing lease expiry resolves to exactly one outcome; the
// loser gets ErrLeaseLost.
func (m *Manager) CompleteLease(id, worker string, report json.RawMessage, errMsg string) error {
	j, err := m.Get(id)
	if err != nil {
		return err
	}
	claim := func(j *Job) bool { return j.heldByLocked(worker) }
	var ok bool
	if errMsg == "" {
		ok = m.finish(j, claim, StateDone, nil, report, "")
	} else {
		ok = m.finish(j, claim, StateFailed, errors.New(errMsg), nil, "")
	}
	if !ok {
		return fmt.Errorf("%w: job %s is not leased to %q", ErrLeaseLost, id, worker)
	}
	return nil
}

// ExpireLeases requeues (or, past MaxAttempts, fails) every leased job
// whose lease lapsed before now, and returns how many it reclaimed. A
// requeued job goes to the front of its class so the latency already paid
// is not paid twice. The coordinator calls this periodically.
func (m *Manager) ExpireLeases(now time.Time) int {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	maxAttempts := m.opts.MaxAttempts
	m.mu.Unlock()
	n := 0
	for _, j := range jobs {
		j.mu.Lock()
		if !j.leased || j.state != StateRunning || !now.After(j.leaseExpiry) {
			j.mu.Unlock()
			continue
		}
		worker, attempts := j.leaseWorker, j.attempts
		if attempts >= maxAttempts {
			j.mu.Unlock()
			m.mLeaseExpired.Inc()
			claim := func(j *Job) bool { return j.leased && j.leaseWorker == worker }
			m.finish(j, claim, StateFailed,
				fmt.Errorf("jobs: lease expired on worker %q after %d attempts", worker, attempts), nil, "")
			n++
			continue
		}
		m.mLeaseExpired.Inc()
		m.requeueLeasedLocked(j, "lease expired; requeued")
		n++
	}
	return n
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
	j.mu.Lock()
	if !j.heldByLocked(worker) {
		j.mu.Unlock()
		return false
	}
	m.requeueLeasedLocked(j, "lease undelivered; requeued")
	return true
}

// requeueLeasedLocked returns a leased, running job to the front of its
// class queue (or cancels it when the manager is draining). The caller holds
// j.mu and has checked its claim on the lease; the lock is released here.
func (m *Manager) requeueLeasedLocked(j *Job, note string) {
	worker, attempts := j.leaseWorker, j.attempts
	j.leased = false
	j.state = StateQueued
	j.mu.Unlock()
	m.mRequeued.Inc()
	m.mLeasesActive.Add(-1)
	m.mStates[StateQueued].Inc()
	j.emit(Event{Type: "state", State: StateQueued, Worker: worker, Attempt: attempts, Error: note})
	m.mu.Lock()
	if !m.draining {
		m.enqueueLocked(j, true)
		m.mu.Unlock()
	} else {
		m.mu.Unlock()
		m.finish(j, nil, StateCancelled, nil, nil, "cancelled before start")
	}
}

// TakeCancels drains and returns the IDs of leased jobs cancelled while
// worker held them. Heartbeat responses carry them so workers abort
// promptly instead of discovering ErrLeaseLost at completion.
func (m *Manager) TakeCancels(worker string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := m.cancels[worker]
	delete(m.cancels, worker)
	return ids
}
