// Package server exposes the job manager (internal/jobs) as an HTTP/JSON
// API — the network face of mosaicd. The surface is small and versioned:
//
//	POST   /v1/jobs             submit a Spec            → 201 Status (429 when shed, 503 draining)
//	GET    /v1/jobs             list retained jobs       → 200 [Status] (reports elided)
//	GET    /v1/jobs/{id}        status + final report    → 200 Status
//	GET    /v1/jobs/{id}/events NDJSON live event stream → 200 stream of jobs.Event
//	DELETE /v1/jobs/{id}        cancel                   → 202 Status, already cancelled (the run unwinds afterwards)
//	GET    /healthz             readiness probe          → 200 while accepting, 503 when shedding; body carries queue depth + drain state
//	GET    /metrics             Prometheus text exposition
//
// Submissions may carry an X-Mosaic-Tenant header naming the client tenant
// for quota accounting (a tenant in the Spec body wins). In a fleet, the
// coordinator mounts internal/cluster's /cluster/v1/* endpoints beside this
// surface, and a worker — which has no jobs of its own to serve — exposes
// only /healthz and /metrics (NewWorker).
//
// Handlers hold no state of their own: every response is a snapshot from
// the manager, and event streams are driven by the job's own notification
// channel, so a stream costs one goroutine and no polling.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"mosaicsim/internal/jobs"
	"mosaicsim/internal/metrics"
)

// Server routes the API onto a job manager and its metrics registry.
type Server struct {
	mgr *jobs.Manager
	mux *http.ServeMux
}

// New builds the server.
func New(mgr *jobs.Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux()}
	probes(s.mux, mgr.QueueStats, mgr.Registry())
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	return s
}

// NewWorker builds the surface of a fleet worker: the two probes, served
// from its executor. Its jobs are the coordinator's to serve.
func NewWorker(x *jobs.Executor) http.Handler {
	mux := http.NewServeMux()
	probes(mux, x.QueueStats, x.Registry())
	return mux
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON renders v with a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// apiError is the error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// writeErr maps manager errors onto status codes: shed submissions (queue
// full or tenant quota) are 429 with a Retry-After derived from the live
// backlog and observed run times (jobs.Manager.RetryAfter), drain is 503
// with the same hint, unknown IDs 404, anything else from validation is 400.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrTenantQuota):
		w.Header().Set("Retry-After", strconv.Itoa(s.mgr.RetryAfter()))
		code = http.StatusTooManyRequests
	case errors.Is(err, jobs.ErrShuttingDown):
		w.Header().Set("Retry-After", strconv.Itoa(s.mgr.RetryAfter()))
		code = http.StatusServiceUnavailable
	case errors.Is(err, jobs.ErrNotFound):
		code = http.StatusNotFound
	}
	writeJSON(w, code, apiError{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.writeErr(w, fmt.Errorf("bad submission body: %w", err))
		return
	}
	// The tenant rides the X-Mosaic-Tenant header (a proxy-settable
	// identity); an explicit tenant in the body wins.
	if spec.Tenant == "" {
		spec.Tenant = r.Header.Get("X-Mosaic-Tenant")
	}
	j, err := s.mgr.Submit(spec)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusCreated, j.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	js := s.mgr.List()
	out := make([]jobs.Status, len(js))
	for i, j := range js {
		st := j.Status()
		st.Report = nil // list stays light; fetch one job for its report
		out[i] = st
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	// 202, not 200: the job is already cancelled in this body, but a run
	// that was in flight is still unwinding on its executor.
	writeJSON(w, http.StatusAccepted, j.Status())
}

// handleEvents streams the job's event log as NDJSON: everything logged so
// far, then live events as they happen, until the job is terminal (stream
// ends) or the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		evs, more, done := j.EventsSince(next)
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				return // client gone
			}
		}
		next += len(evs)
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

// healthz is the readiness body: the drain status plus the live admission
// snapshot, so load balancers can route on queue depth, not just liveness.
type healthz struct {
	Status string `json:"status"`
	jobs.QueueStats
}

// probes mounts what every role serves. /healthz doubles as a readiness
// probe: 200 while the process accepts work, 503 once it would shed it
// (draining or queue at capacity), with the queue snapshot in the body
// either way. /metrics is the Prometheus text exposition of reg.
func probes(mux *http.ServeMux, stats func() jobs.QueueStats, reg *metrics.Registry) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := stats()
		status := "ok"
		if st.Draining {
			status = "draining"
		}
		code := http.StatusOK
		if !st.Accepting {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, healthz{Status: status, QueueStats: st})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteText(w)
	})
}
