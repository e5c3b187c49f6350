package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"mosaicsim/internal/jobs"
	"mosaicsim/internal/metrics"
)

// CoordinatorOptions tunes the fleet side of a manager.
type CoordinatorOptions struct {
	// LeaseTTL is how long a lease survives without renewal. Zero means
	// 15s. Expiry scans run at a quarter of this.
	LeaseTTL time.Duration
	// Heartbeat is the interval workers are told to report at. Zero means
	// LeaseTTL / 3, so a worker gets ~three renewal chances per TTL. A
	// worker silent for three of them leaves the fleet gauge.
	Heartbeat time.Duration
}

// Coordinator exposes a jobs.Manager's lease protocol to a worker fleet over
// HTTP, and drives lease expiry.
type Coordinator struct {
	mgr  *jobs.Manager
	opts CoordinatorOptions
	mux  *http.ServeMux

	mu      sync.Mutex
	workers map[string]time.Time // registered worker → last sighting

	mWorkers    *metrics.Gauge
	mLeases     *metrics.Counter
	mHeartbeats *metrics.Counter
	mLost       *metrics.Counter
}

// NewCoordinator wraps mgr with the /cluster/v1/ protocol surface. Call
// Run to drive lease expiry; mount the Coordinator itself beside the
// public API (it routes only /cluster/v1/* paths).
func NewCoordinator(mgr *jobs.Manager, opts CoordinatorOptions) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = opts.LeaseTTL / 3
	}
	reg := mgr.Registry()
	c := &Coordinator{
		mgr:     mgr,
		opts:    opts,
		mux:     http.NewServeMux(),
		workers: make(map[string]time.Time),
		mWorkers: reg.Gauge("mosaicd_fleet_workers",
			"Workers currently registered and heartbeating.", nil),
		mLeases: reg.Counter("mosaicd_fleet_leases_granted_total",
			"Leases granted to fleet workers.", nil),
		mHeartbeats: reg.Counter("mosaicd_fleet_heartbeats_total",
			"Heartbeats received from fleet workers.", nil),
		mLost: reg.Counter("mosaicd_fleet_workers_lost_total",
			"Workers dropped after going silent past the worker timeout.", nil),
	}
	c.mux.HandleFunc("POST /cluster/v1/register", c.handleRegister)
	c.mux.HandleFunc("POST /cluster/v1/lease", c.handleLease)
	c.mux.HandleFunc("POST /cluster/v1/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /cluster/v1/jobs/{id}/events", c.handleEvents)
	c.mux.HandleFunc("POST /cluster/v1/jobs/{id}/complete", c.handleComplete)
	return c
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// Run drives the time-based half of the protocol — lease expiry and silent-
// worker pruning — until ctx is cancelled. Scans run at a quarter of the
// lease TTL so an expired lease requeues well within one extra TTL.
func (c *Coordinator) Run(ctx context.Context) {
	period := c.opts.LeaseTTL / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			c.mgr.ExpireLeases(now)
			c.prune(now)
		}
	}
}

// prune forgets workers silent past the worker timeout. Their leases are
// reclaimed separately by ExpireLeases; this only keeps the fleet gauge
// honest.
func (c *Coordinator) prune(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, seen := range c.workers {
		if now.Sub(seen) > 3*c.opts.Heartbeat {
			delete(c.workers, name)
			c.mLost.Inc()
		}
	}
	c.mWorkers.Set(int64(len(c.workers)))
}

// sighted decodes a register, lease or heartbeat request into req (whose
// Name field name points at) and records the sighting, registering the
// worker if it is new to this coordinator. A malformed or unnamed request is
// answered 400 here, and sighted reports false.
func (c *Coordinator) sighted(w http.ResponseWriter, r *http.Request, what string, req any, name *string) bool {
	if err := decode(r, req); err != nil {
		writeErr(w, fmt.Errorf("bad %s body: %w", what, err))
		return false
	}
	if *name == "" {
		writeErr(w, fmt.Errorf("%s: worker name is required", what))
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[*name] = time.Now()
	c.mWorkers.Set(int64(len(c.workers)))
	return true
}

// decode unmarshals a request body strictly, rejecting unknown fields.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// writeJSON renders v with a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr maps protocol errors onto status codes: a lost lease is 409 (the
// worker must abandon the run), an unknown job 404, anything else 400.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, jobs.ErrLeaseLost):
		code = http.StatusConflict
	case errors.Is(err, jobs.ErrNotFound):
		code = http.StatusNotFound
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !c.sighted(w, r, "register", &req, &req.Name) {
		return
	}
	writeJSON(w, http.StatusOK, RegisterResponse{
		LeaseTTL:       c.opts.LeaseTTL,
		HeartbeatEvery: c.opts.Heartbeat,
	})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !c.sighted(w, r, "lease", &req, &req.Name) {
		return
	}
	// A zero (absent) wait yields a context that is already done, which
	// makes LeaseJob a single look: polling is the degenerate long poll.
	ctx, cancel := context.WithTimeout(r.Context(), min(req.Wait, c.opts.Heartbeat))
	defer cancel()
	lease := c.mgr.LeaseJob(ctx, req.Name, req.Affinity, c.opts.LeaseTTL)
	if lease == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	// The grant may have raced the client going away while parked. A lease
	// nobody received goes straight back to the queue.
	if r.Context().Err() != nil || writeLease(w, lease) != nil {
		c.mgr.ReturnLease(lease.JobID, req.Name)
		return
	}
	c.mLeases.Inc()
}

// writeLease sends a granted lease and flushes it, so a connection that is
// known to be dead surfaces as an error while the grant can still be undone.
func writeLease(w http.ResponseWriter, lease *jobs.Lease) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := json.NewEncoder(w).Encode(lease); err != nil {
		return err
	}
	if err := http.NewResponseController(w).Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return err
	}
	return nil
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !c.sighted(w, r, "heartbeat", &req, &req.Name) {
		return
	}
	c.mHeartbeats.Inc()
	var resp HeartbeatResponse
	for _, id := range req.Running {
		if err := c.mgr.RenewLease(id, req.Name, c.opts.LeaseTTL); err != nil {
			resp.Lost = append(resp.Lost, id)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	var req EventRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, fmt.Errorf("bad event body: %w", err))
		return
	}
	if req.Event != nil {
		req.Events = append([]jobs.Event{*req.Event}, req.Events...)
	}
	if err := c.mgr.AppendRemote(r.PathValue("id"), req.Name, req.Events); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, fmt.Errorf("bad complete body: %w", err))
		return
	}
	var runErr error
	if req.Error != "" {
		runErr = errors.New(req.Error)
	}
	if err := c.mgr.CompleteLease(r.PathValue("id"), req.Name, req.Report, runErr); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusOK)
}
