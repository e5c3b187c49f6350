package jobs

import (
	"context"
	"encoding/json"
	"fmt"

	"mosaicsim/internal/store"
)

// This file binds the manager to the disk store (internal/store). The
// contract is write-through, read-at-startup: every admitted job lands a
// record under its content address, every appended event appends one NDJSON
// line (under the job lock, so the log order is the observed order), and a
// restarted manager rebuilds its table from the store by folding each intact
// line through Job.apply, exactly as the live appends were folded. Terminal
// jobs replay their event streams byte-identically (the lines were written
// verbatim and Event round-trips exactly) and report the same Status; live
// jobs re-queue and run again. Store failures never fail a job: persistence
// degrades to in-memory operation and counts mosaicd_store_errors_total.

// bindStore computes j's content address, persists its admission record,
// and wires its event appender. Called under m.mu so records land in
// admission order. No-op without a store; on record-write failure the job
// proceeds unpersisted.
func (m *Manager) bindStore(j *Job) {
	st := m.opts.Store
	if st == nil {
		return
	}
	specJSON, err := json.Marshal(j.Spec)
	if err != nil {
		m.mStoreErrors.Inc()
		return
	}
	j.digest = store.Digest(j.ID, specJSON)
	rec := store.JobRecord{
		ID:        j.ID,
		Digest:    j.digest,
		Tenant:    j.Spec.Tenant,
		Priority:  j.Spec.Priority,
		Submitted: j.submitted,
		Spec:      specJSON,
	}
	if err := st.CreateJob(rec); err != nil {
		m.mStoreErrors.Inc()
		j.digest = ""
		return
	}
	m.bindAppender(j)
}

// bindAppender wires j's per-event persistence hook (appendLocked calls it
// under the job lock with the marshalled line).
func (m *Manager) bindAppender(j *Job) {
	st := m.opts.Store
	j.persist = func(line []byte) {
		if err := st.AppendEvent(j.digest, line); err != nil {
			m.mStoreErrors.Inc()
		}
	}
}

// recover rebuilds the job table from the store at startup (before the
// manager is handed to anyone, so it runs single-threaded). Terminal jobs are
// reloaded as records whose event streams replay exactly as served before
// the restart; live jobs (queued, or running when the process died) are
// re-queued — a job whose log does not end queued (it was mid-run at the
// kill) gets a fresh queued edge appended so its log explains the rerun, and
// a terminal job gets nothing appended. The ID counter resumes past the
// highest recovered ID, so new admissions never collide with stored
// directories.
func (m *Manager) recover() {
	snaps, err := m.opts.Store.Jobs()
	if err != nil {
		m.mStoreErrors.Inc()
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, snap := range snaps {
		var spec Spec
		if err := json.Unmarshal(snap.Rec.Spec, &spec); err != nil {
			m.mStoreErrors.Inc()
			continue
		}
		j := &Job{
			ID:        snap.Rec.ID,
			Spec:      spec,
			affinity:  spec.AffinityHash(),
			digest:    snap.Rec.Digest,
			notify:    make(chan struct{}),
			submitted: snap.Rec.Submitted,
		}
		for _, line := range snap.Events {
			var e Event
			if err := json.Unmarshal(line, &e); err != nil {
				continue
			}
			j.events = append(j.events, e)
			j.apply(e)
		}
		var n int
		if _, err := fmt.Sscanf(snap.Rec.ID, "j%d", &n); err == nil && n > m.nextID {
			m.nextID = n
		}
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
		if j.state.Terminal() {
			if j.state == StateDone {
				j.report = snap.Report
			}
			m.mRecovered.Inc()
			continue
		}
		// Live at the kill: resume. The appender continues the existing log
		// (sequence numbers pick up where the intact prefix ended).
		j.ctx, j.cancel = context.WithCancel(context.Background())
		m.bindAppender(j)
		m.tenantLive[spec.Tenant]++
		if j.state != StateQueued {
			j.appendLocked(Event{Type: "state", State: StateQueued, Error: "requeued after restart"})
		}
		m.enqueueLocked(j, false)
		m.mResumed.Inc()
	}
}
