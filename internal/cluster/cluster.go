// Package cluster is the wire form of the lease protocol (internal/jobs):
// a Coordinator that serves a manager's leases over HTTP/JSON, and a Worker
// that feeds an executor's lease loop from one. A standalone daemon makes
// the same calls on its manager directly; a fleet differs only by transport.
//
// The protocol (all under /cluster/v1/, mounted beside the public API):
//
//	POST /cluster/v1/register           worker announces itself     → lease TTL + heartbeat interval
//	POST /cluster/v1/lease              request one job (long poll) → 200 jobs.Lease, or 204 when idle
//	POST /cluster/v1/heartbeat          liveness + renew leases     → leases lost (cancelled, expired)
//	POST /cluster/v1/jobs/{id}/events   forward a batch of stage/progress events
//	POST /cluster/v1/jobs/{id}/complete report (or error) for a leased job
//
// Lease dispatch is push-based. A lease request states how long the worker
// will wait (none is a zero wait); the coordinator parks it until a job is
// enqueued or requeued, the manager starts draining, the request's context
// ends, or the wait runs out, and then answers 200 or 204 — so a job starts
// when it is queued, not at a worker's next poll. The hold is capped at the
// heartbeat interval announced at register: every lease request counts as a
// sighting of the worker, so a parked worker is never pruned as silent (the
// worker timeout is three intervals). A lease granted to a request whose
// client is already gone (context done, or the response write fails) is
// handed straight back to the front of the queue — a requeue, not an expiry
// — instead of stranding the job for a lease TTL.
//
// A 409 on an event batch or a completion means the lease is no longer the
// worker's (the job was cancelled, or the lease expired and the job
// requeued): the worker aborts that run at once. Heartbeats say the same for
// every lease at once.
//
// Rolling upgrades go coordinator first: its decoder rejects unknown fields,
// while it still accepts what an older worker sends (no "wait": it polls;
// "event": a batch of one).
//
// Design invariants, shared with internal/jobs:
//
//   - The coordinator owns every lifecycle edge. Workers forward only stage
//     and progress events, so each job's history is decided by one process
//     and the persisted log is a single total order.
//   - A worker holds no job records: per lease, the cancel function of its
//     run and the events not yet posted. A job is admitted once, at the
//     coordinator; a worker runs whatever it is leased.
//   - Leases carry the job's artifact-affinity hash. Workers send the hashes
//     they have executed with lease requests; the coordinator prefers
//     affinity matches (warm trace/schedule caches) and otherwise lets the
//     worker steal the front of the queue.
//   - Liveness is lease-based, not connection-based: a SIGKILL'd worker
//     stops renewing, its leases expire, and the jobs requeue. A SIGKILL'd
//     coordinator forgets its leases and its workers; the restart requeues
//     the jobs its store shows running and learns the workers from their
//     next request.
//   - Reports are opaque bytes end to end: the worker's executor emits
//     json.Marshal(soc.Result), the coordinator stores and serves it
//     verbatim, so a fleet-executed job is byte-identical to the
//     single-process sim.Session path.
package cluster

import (
	"encoding/json"
	"time"

	"mosaicsim/internal/jobs"
)

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name identifies the worker across its whole lifetime; leases,
	// heartbeats, and completions all carry it.
	Name string `json:"name"`
	// Slots is the worker's concurrent-job capacity (informational).
	Slots int `json:"slots"`
}

// RegisterResponse hands the worker the coordinator's timing contract.
type RegisterResponse struct {
	// LeaseTTL is how long a granted lease lives without renewal.
	LeaseTTL time.Duration `json:"leaseTTL"`
	// HeartbeatEvery is how often the worker must heartbeat (each
	// heartbeat renews all of the worker's leases).
	HeartbeatEvery time.Duration `json:"heartbeatEvery"`
}

// LeaseRequest asks for one job.
type LeaseRequest struct {
	Name string `json:"name"`
	// Affinity lists the artifact-affinity hashes of jobs this worker has
	// executed (its warm caches). The coordinator prefers a queued job
	// matching one of them.
	Affinity []uint64 `json:"affinity,omitempty"`
	// Wait is how long the coordinator may park the request before answering
	// 204 (capped at the heartbeat interval). Absent means answer at once.
	Wait time.Duration `json:"wait,omitempty"`
}

// HeartbeatRequest reports liveness and the leases the worker still holds.
type HeartbeatRequest struct {
	Name string `json:"name"`
	// Running lists the coordinator job IDs the worker is executing; each
	// is renewed for another lease TTL.
	Running []string `json:"running,omitempty"`
}

// HeartbeatResponse carries the coordinator's instructions back.
type HeartbeatResponse struct {
	// Cancels is how older coordinators report a client-side cancel; this
	// one reports it under Lost, and workers treat the two alike.
	Cancels []string `json:"cancels,omitempty"`
	// Lost are jobs from Running whose lease the worker no longer holds
	// (cancelled, expired and requeued, or finished elsewhere); the worker
	// must abort them and report nothing further.
	Lost []string `json:"lost,omitempty"`
}

// EventRequest forwards stage and progress events from the worker's run,
// in the order they happened.
type EventRequest struct {
	Name   string       `json:"name"`
	Events []jobs.Event `json:"events,omitempty"`
	// Event is the single-event form workers built before batching send; it
	// is appended ahead of Events.
	Event *jobs.Event `json:"event,omitempty"`
}

// CompleteRequest finishes a leased job: a report, or an error message.
type CompleteRequest struct {
	Name   string          `json:"name"`
	Report json.RawMessage `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
}
