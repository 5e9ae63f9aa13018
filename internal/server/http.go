package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/obs"
)

// HTTP surface:
//
//	POST   /v1/jobs               submit (202 + job id, typed 4xx on rejection)
//	GET    /v1/jobs/{id}          status + live partial stats
//	GET    /v1/jobs/{id}/clusters clusters of a done job (409 otherwise)
//	GET    /v1/jobs/{id}/events   SSE: journal replay + live tail (events.go)
//	DELETE /v1/jobs/{id}          cancel
//	GET    /v1/fleet              lease-derived who-owns-what view (events.go)
//	GET    /healthz               process liveness (always 200)
//	GET    /readyz                503 while draining
//	GET    /metrics               Prometheus text: daemon + engine counters
//	                              + latency histograms
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/clusters", s.handleClusters)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.writeMetrics(w); err != nil {
			s.cfg.Logf("metrics: %v", err)
		}
	})
	return mux
}

// writeMetrics renders the full /metrics payload: daemon counters,
// aggregated engine counters, the daemon latency histograms, and the
// per-phase engine histogram family. One function so tests can lint
// the exact exposition a scraper sees.
func (s *Server) writeMetrics(w io.Writer) error {
	if err := s.Met.WritePrometheus(w, s.aggregateSnapshot()); err != nil {
		return err
	}
	if err := s.Hist.QueueWait.WritePrometheus(w, "sxnmd_queue_wait_seconds",
		"Time jobs spend queued before a worker picks them up."); err != nil {
		return err
	}
	if err := s.Hist.Attempt.WritePrometheus(w, "sxnmd_attempt_duration_seconds",
		"Duration of individual engine attempts, successful or not."); err != nil {
		return err
	}
	if err := s.Hist.JobLatency.WritePrometheus(w, "sxnmd_job_duration_seconds",
		"End-to-end job latency from submission to terminal state."); err != nil {
		return err
	}
	return s.phases.WritePrometheus(w, "sxnmd_engine_phase_duration_seconds",
		"Engine phase (span) durations aggregated across all jobs.")
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, apiErr := DecodeJobRequest(body)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	j, apiErr := s.Submit(req)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, s.statusOf(j))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeAPIError(w, &apiError{Status: http.StatusNotFound, Code: "unknown-job",
			Message: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, s.statusOf(j))
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeAPIError(w, &apiError{Status: http.StatusNotFound, Code: "unknown-job",
			Message: "no such job"})
		return
	}
	j.mu.Lock()
	state := j.state
	out := j.result
	j.mu.Unlock()
	if state != StateDone || out == nil {
		writeAPIError(w, &apiError{Status: http.StatusConflict, Code: "not-done",
			Message: fmt.Sprintf("job is %s; clusters exist only for done jobs", state)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":       j.id,
		"clusters": out.Clusters,
		"summary":  out.Summary,
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, changed := s.Cancel(r.PathValue("id"))
	if j == nil {
		writeAPIError(w, &apiError{Status: http.StatusNotFound, Code: "unknown-job",
			Message: "no such job"})
		return
	}
	code := http.StatusOK
	if changed {
		code = http.StatusAccepted
	}
	writeJSON(w, code, s.statusOf(j))
}

// JobStatus is the GET /v1/jobs/{id} (and POST response) body.
type JobStatus struct {
	ID        string             `json:"id"`
	Tenant    string             `json:"tenant"`
	State     JobState           `json:"state"`
	Attempts  int                `json:"attempts"`
	Resumed   bool               `json:"resumed,omitempty"`
	Submitted time.Time          `json:"submitted"`
	Started   *time.Time         `json:"started,omitempty"`
	Finished  *time.Time         `json:"finished,omitempty"`
	Error     *apiErrorJSON      `json:"error,omitempty"`
	Summary   []CandidateSummary `json:"summary,omitempty"`
	Stats     *obs.Snapshot      `json:"stats,omitempty"`
}

func (s *Server) statusOf(j *job) *JobStatus {
	snap := j.snapshot()
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &JobStatus{
		ID:        j.id,
		Tenant:    j.tenant,
		State:     j.state,
		Attempts:  j.attempts,
		Resumed:   j.resumed,
		Submitted: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.errCode != "" {
		st.Error = &apiErrorJSON{Code: j.errCode, Message: j.errMsg}
	}
	if j.result != nil {
		st.Summary = j.result.Summary
		st.Attempts = j.result.Attempts
	}
	if snap != (obs.Snapshot{}) {
		st.Stats = &snap
	}
	return st
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeAPIError(w http.ResponseWriter, e *apiError) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(e.RetryAfter)))
	}
	status := e.Status
	if status == 0 {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, map[string]any{"error": apiErrorJSON{Code: e.Code, Message: e.Message}})
}

// retryAfterSeconds converts a backpressure hint to whole seconds with
// bounded jitter (up to +25%, at least +0..1s): a fleet of clients
// rejected in the same instant must not all come back in the same
// instant. The result is always ≥ 1 and ≤ ceil(1.25·d)+1 seconds.
func retryAfterSeconds(d time.Duration) int {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs + rand.Intn(secs/4+2)
}
