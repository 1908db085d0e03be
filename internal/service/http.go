package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// HTTP mapping of job outcomes. Shed responses carry a jittered
// Retry-After; suspended responses are 202 (the work is accepted and
// journaled — re-query the job ID against the next daemon instance), as
// are the async in-flight phases (accepted, not yet settled).
func httpStatus(o *JobOutcome) int {
	switch o.Status {
	case StatusCompleted, StatusDegraded, StatusRecovered:
		return http.StatusOK
	case StatusSuspended, StatusPending, StatusRunning:
		return http.StatusAccepted
	case StatusDeadline:
		return http.StatusGatewayTimeout
	case StatusShed:
		// Only quota refusals are the tenant's own doing (429); every
		// other shed is service-side pressure (503). The switch is on the
		// structured Reason, never on Detail prose.
		if o.Reason == ReasonQuota {
			return http.StatusTooManyRequests
		}
		return http.StatusServiceUnavailable
	case StatusFailed:
		switch o.Reason {
		case ReasonUnknownImage:
			return http.StatusNotFound
		case ReasonQuarantined:
			return http.StatusUnprocessableEntity
		case ReasonInvalid:
			return http.StatusBadRequest
		}
		return http.StatusInternalServerError
	}
	return http.StatusInternalServerError
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/images           {"workload": "lorenz"}    → content-addressed image ID
//	POST /v1/jobs             JobRequest JSON           → JobOutcome JSON (blocks to completion)
//	POST /v1/jobs?async=1     JobRequest JSON           → 202 + pending JobOutcome (job ID) immediately
//	GET  /v1/jobs/{id}                                  → stored outcome (pending/running → 202)
//	GET  /v1/jobs/{id}/events                           → SSE status-transition stream
//	GET  /v1/jobs/{id}/events?poll=1&since=N            → long-poll fallback (JSON events after seq N)
//	GET  /healthz                                       → 200 while the process serves
//	GET  /readyz                                        → 200 admitting, 503 draining
//	GET  /metrics                                       → Prometheus text
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/images", s.handleRegister)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleOutcome)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Ready() {
			writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "state": s.State().String()})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining", "state": s.State().String()})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.WriteMetrics(w)
	})
	return mux
}

// maxRequestBody bounds the JSON body of POST /v1/images and
// POST /v1/jobs. A job request with an inject spec is well under 1 KiB;
// without a bound, one POST of a multi-GB string would make the daemon
// buffer all of it.
const maxRequestBody = 64 << 10

// decodeBody decodes r's JSON body into v, reading at most
// maxRequestBody bytes. On failure it writes the error response — 413
// for an oversized body, otherwise 400 with the decode error prefixed
// by badRequest — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, badRequest string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeJSON(w, http.StatusRequestEntityTooLarge,
			map[string]any{"error": fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": badRequest + err.Error()})
	default:
		return true
	}
	return false
}

type registerRequest struct {
	Workload string `json:"workload"`
}

type registerResponse struct {
	ID          string `json:"id"`
	Workload    string `json:"workload"`
	Quarantined bool   `json:"quarantined,omitempty"`
}

func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	const usage = "body must be {\"workload\": \"<name>\"}"
	var req registerRequest
	if !decodeBody(w, r, &req, usage+": ") {
		return
	}
	if req.Workload == "" {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": usage})
		return
	}
	entry, err := s.reg.Register(req.Workload)
	if err != nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
		return
	}
	q, _ := entry.Quarantined()
	writeJSON(w, http.StatusOK, registerResponse{ID: entry.ID, Workload: entry.Workload, Quarantined: q})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeBody(w, r, &req, "malformed job request: ") {
		return
	}
	if req.Tenant == "" {
		req.Tenant = "anonymous"
	}
	if req.Alt == "" {
		req.Alt = "boxed"
	}
	var o *JobOutcome
	if r.URL.Query().Get("async") == "1" {
		o = s.SubmitAsync(req)
	} else {
		o = s.Submit(req)
	}
	if o.RetryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(math.Ceil(o.RetryAfter.Seconds()))))
	}
	writeJSON(w, httpStatus(o), o)
}

func (s *Service) handleOutcome(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	o, ok := s.Outcome(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown job " + id})
		return
	}
	writeJSON(w, httpStatus(o), o)
}

// handleEvents streams a job's status transitions. Default transport is
// Server-Sent Events; ?poll=1 (or a ResponseWriter that can't flush)
// selects the long-poll fallback. Both honor a `since` cursor (also the
// SSE Last-Event-ID header) so reconnecting clients resume without
// replaying or losing transitions.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	since := 0
	if v := r.URL.Query().Get("since"); v != "" {
		since, _ = strconv.Atoi(v)
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		since, _ = strconv.Atoi(v)
	}
	if _, ok := s.Outcome(id); !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown job " + id})
		return
	}

	flusher, canFlush := w.(http.Flusher)
	if r.URL.Query().Get("poll") == "1" || !canFlush {
		s.longPollEvents(w, r, id, since)
		return
	}
	s.streamEvents(w, r, id, since, flusher)
}

// longPollEvents answers one GET with the events after `since`, waiting
// up to the poll window for the first new one. An empty list on timeout
// is a valid answer — the client re-polls with the same cursor.
func (s *Service) longPollEvents(w http.ResponseWriter, r *http.Request, id string, since int) {
	wait := 30 * time.Second
	if v := r.URL.Query().Get("wait_ms"); v != "" {
		if ms, err := strconv.Atoi(v); err == nil && ms >= 0 {
			wait = time.Duration(ms) * time.Millisecond
			if wait > time.Minute {
				wait = time.Minute
			}
		}
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		evs, notify, ok := s.eventsAfter(id, since)
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown job " + id})
			return
		}
		if len(evs) > 0 {
			writeJSON(w, http.StatusOK, map[string]any{"job": id, "events": evs})
			return
		}
		select {
		case <-notify:
		case <-deadline.C:
			writeJSON(w, http.StatusOK, map[string]any{"job": id, "events": []JobEvent{}})
			return
		case <-r.Context().Done():
			return
		}
	}
}

// streamEvents is the SSE transport: each status transition is one
// `event: <status>` frame whose data is the JobEvent JSON; `id:` carries
// the sequence number for Last-Event-ID resumption. The stream ends at
// the job's terminal event (or client disconnect); idle waits emit
// comment heartbeats so intermediaries don't reap the connection.
func (s *Service) streamEvents(w http.ResponseWriter, r *http.Request, id string, since int, flusher http.Flusher) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		evs, notify, ok := s.eventsAfter(id, since)
		if !ok {
			// Evicted mid-stream: nothing more will ever arrive.
			return
		}
		for _, ev := range evs {
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Status, data)
			since = ev.Seq
			if ev.Terminal {
				flusher.Flush()
				return
			}
		}
		flusher.Flush()
		select {
		case <-notify:
		case <-heartbeat.C:
			fmt.Fprint(w, ": keep-alive\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
