package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	sxnm "repro"
	"repro/internal/obs"
)

// JobState is the lifecycle position of one submitted job.
//
//	queued ──▶ running ──▶ done
//	  │           │    ├──▶ failed
//	  │           │    └──▶ canceled
//	  │           └──(drain)──▶ queued   (spooled; resumes after restart)
//	  └──(cancel)──▶ canceled
//
// A running job interrupted by a daemon drain goes back to queued: its
// progress is checkpointed and the next start — of this process or a
// restarted one — picks it up from the spool.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether a job in this state will never run again.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobRequest is the POST /v1/jobs body: the XML document to
// deduplicate, the SXNM configuration to do it with, and optional
// per-job resource limits. It doubles as the spooled on-disk form
// (job.json), which is what makes queued jobs survive a restart.
type JobRequest struct {
	// Tenant attributes the job for admission control; empty means
	// "default". Letters, digits, '-', '_', '.' only.
	Tenant string `json:"tenant,omitempty"`
	// ConfigXML is the SXNM configuration document (see config.Parse).
	ConfigXML string `json:"config_xml"`
	// DocumentXML is the XML document to deduplicate.
	DocumentXML string `json:"document_xml"`
	// Limits bounds the run; fields beyond the server's per-job budget
	// ceiling are rejected at admission.
	Limits *LimitsSpec `json:"limits,omitempty"`
}

// LimitsSpec is the wire form of runlimit.Limits. Zero fields mean
// "use the server default" (which may itself be unlimited).
type LimitsSpec struct {
	TimeoutMS      int64 `json:"timeout_ms,omitempty"`
	MaxDepth       int   `json:"max_depth,omitempty"`
	MaxNodes       int   `json:"max_nodes,omitempty"`
	MaxComparisons int   `json:"max_comparisons,omitempty"`
}

// apiError is an error with an HTTP rendering: status code, a stable
// machine-readable code, and a human message. RetryAfter > 0 adds a
// Retry-After header — the admission-control backpressure signal.
type apiError struct {
	Status     int           `json:"-"`
	Code       string        `json:"code"`
	Message    string        `json:"message"`
	RetryAfter time.Duration `json:"-"`
}

func (e *apiError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

func badRequest(code, format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: code, Message: fmt.Sprintf(format, args...)}
}

// DecodeJobRequest reads and validates one job submission from r.
// Every rejection is a typed *apiError with a 4xx status: malformed
// JSON, unknown fields, oversized bodies (via http.MaxBytesReader),
// missing documents, bad tenant names, and negative limits all map to
// distinct codes. It does NOT compile the embedded config — the
// caller does, so config errors carry their own code.
func DecodeJobRequest(r io.Reader) (*JobRequest, *apiError) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, &apiError{Status: http.StatusRequestEntityTooLarge, Code: "body-too-large",
				Message: fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit)}
		}
		return nil, badRequest("malformed-request", "decoding job request: %v", err)
	}
	// A second document in the stream is a smuggling attempt or a bug;
	// either way, refuse.
	if dec.More() {
		return nil, badRequest("malformed-request", "trailing data after job request")
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

func (r *JobRequest) validate() *apiError {
	if r.Tenant == "" {
		r.Tenant = "default"
	}
	if len(r.Tenant) > 64 {
		return badRequest("invalid-tenant", "tenant name longer than 64 bytes")
	}
	for _, c := range r.Tenant {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.') {
			return badRequest("invalid-tenant", "tenant name may use letters, digits, '-', '_', and '.' only")
		}
	}
	if strings.TrimSpace(r.ConfigXML) == "" {
		return badRequest("missing-config", "config_xml is required")
	}
	if strings.TrimSpace(r.DocumentXML) == "" {
		return badRequest("missing-document", "document_xml is required")
	}
	if l := r.Limits; l != nil {
		if l.TimeoutMS < 0 || l.MaxDepth < 0 || l.MaxNodes < 0 || l.MaxComparisons < 0 {
			return badRequest("invalid-limits", "limits must be non-negative")
		}
	}
	return nil
}

// CompileConfig parses and validates the embedded SXNM configuration,
// mapping every failure to the typed invalid-config 4xx. The compiled
// form is discarded — workers re-parse at run time — but compiling at
// admission means a bad config is rejected before it occupies a queue
// slot.
func (r *JobRequest) CompileConfig() (*sxnm.Config, *apiError) {
	cfg, err := sxnm.LoadConfig(strings.NewReader(r.ConfigXML))
	if err != nil {
		return nil, badRequest("invalid-config", "%v", err)
	}
	if _, err := sxnm.New(cfg); err != nil {
		return nil, badRequest("invalid-config", "%v", err)
	}
	return cfg, nil
}

// effectiveLimits merges the request's limits over the server default
// and enforces the per-job budget ceiling: a requested value above a
// configured maximum is a typed 4xx (the tenant asked for more budget
// than it has), and an unlimited request inherits the ceiling.
func effectiveLimits(spec *LimitsSpec, def, max sxnm.Limits) (sxnm.Limits, *apiError) {
	lim := def
	if spec != nil {
		if spec.TimeoutMS > 0 {
			lim.Timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
		}
		if spec.MaxDepth > 0 {
			lim.MaxDepth = spec.MaxDepth
		}
		if spec.MaxNodes > 0 {
			lim.MaxNodes = spec.MaxNodes
		}
		if spec.MaxComparisons > 0 {
			lim.MaxComparisons = spec.MaxComparisons
		}
	}
	type bound struct {
		name     string
		req, max int64
		set      func(int64)
	}
	bounds := []bound{
		{"timeout_ms", int64(lim.Timeout / time.Millisecond), int64(max.Timeout / time.Millisecond),
			func(v int64) { lim.Timeout = time.Duration(v) * time.Millisecond }},
		{"max_depth", int64(lim.MaxDepth), int64(max.MaxDepth), func(v int64) { lim.MaxDepth = int(v) }},
		{"max_nodes", int64(lim.MaxNodes), int64(max.MaxNodes), func(v int64) { lim.MaxNodes = int(v) }},
		{"max_comparisons", int64(lim.MaxComparisons), int64(max.MaxComparisons), func(v int64) { lim.MaxComparisons = int(v) }},
	}
	for _, b := range bounds {
		if b.max <= 0 {
			continue // no ceiling configured for this dimension
		}
		if b.req > b.max {
			return sxnm.Limits{}, badRequest("limits-exceed-budget",
				"%s %d exceeds this server's per-job budget of %d", b.name, b.req, b.max)
		}
		if b.req == 0 {
			b.set(b.max) // unlimited request inherits the ceiling
		}
	}
	return lim, nil
}

// job is the server's in-memory record of one submission. The mutex
// guards the mutable lifecycle fields; the ID, tenant, and observer
// are immutable after creation.
type job struct {
	id        string
	tenant    string
	limits    sxnm.Limits
	submitted time.Time

	// Observability: every job carries its own observer and report
	// collector so GET status can serve live partial stats and every
	// terminal transition — including drain and cancel — leaves a
	// report.json in the spool.
	ob  *sxnm.Observer
	col *sxnm.Collector
	// jr is the job's durable event journal appender (nil when
	// journaling is disabled); set before the job is enqueued.
	jr *journal

	mu sync.Mutex
	// req is the submitted body. It is released (set to nil) once the
	// job is terminal, so finished jobs kept for queryability do not
	// pin their documents in memory; job.json in the spool still holds
	// the body for restarts.
	req       *JobRequest
	state     JobState
	attempts  int
	enqueued  time.Time // last time the job entered the run queue
	started   time.Time
	finished  time.Time
	errCode   string
	errMsg    string
	epoch     int64 // lease fencing token (0 ⇒ constructed without a lease)
	fenced    bool  // lease lost to a takeover; no spool writes allowed
	resumed   bool  // re-enqueued from the spool by a restart
	cancelled bool  // DELETE received
	counted   bool  // holds a tenant-accounting slot (set at enqueue)
	finalized bool  // a finishJob claimed this job (exactly-once terminal)
	cancel    context.CancelFunc
	result    *Outcome
	lastSnap  obs.Snapshot // final engine counters once terminal/requeued
}

func (j *job) setState(s JobState) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// requestCancel flags the job and cancels its run context if one is
// live. Returns the state observed at the time of the call.
func (j *job) requestCancel() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.state
	if st.Terminal() {
		return st
	}
	j.cancelled = true
	if j.cancel != nil {
		j.cancel()
	}
	return st
}

// request returns the submitted body, or nil once the job is terminal.
func (j *job) request() *JobRequest {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.req
}

func (j *job) isCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}

// snapshot returns the engine counters: live while the job runs, the
// final values after it stopped.
func (j *job) snapshot() obs.Snapshot {
	j.mu.Lock()
	terminal := j.state.Terminal()
	snap := j.lastSnap
	j.mu.Unlock()
	if terminal && snap != (obs.Snapshot{}) {
		return snap
	}
	return j.ob.Metrics().Snapshot()
}

// Outcome is the durable record of a finished job (outcome.json in
// the job's spool directory): how it ended, what it found, and the
// final engine counters. Restarts load it so finished jobs stay
// queryable across daemon generations.
type Outcome struct {
	State      JobState           `json:"state"`
	Attempts   int                `json:"attempts"`
	FinishedAt time.Time          `json:"finished_at"`
	Error      *apiErrorJSON      `json:"error,omitempty"`
	Summary    []CandidateSummary `json:"summary,omitempty"`
	Clusters   map[string][][]int `json:"clusters,omitempty"`
	Stats      *obs.Snapshot      `json:"stats,omitempty"`
}

// apiErrorJSON is the serializable slice of apiError.
type apiErrorJSON struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// CandidateSummary is one candidate's result row.
type CandidateSummary struct {
	Candidate    string `json:"candidate"`
	Elements     int    `json:"elements"`
	Clusters     int    `json:"clusters"`
	NonSingleton int    `json:"duplicate_groups"`
	Pairs        int    `json:"duplicate_pairs"`
}

// clustersOf flattens a result into the wire/spool cluster form: per
// candidate, clusters in ID order, members ascending — fully
// deterministic, so two runs over the same input serialize to
// identical bytes (the resume differential test depends on this).
func clustersOf(res *sxnm.Result) map[string][][]int {
	if res == nil {
		return nil
	}
	out := make(map[string][][]int, len(res.Clusters))
	for name, cs := range res.Clusters {
		groups := make([][]int, 0, len(cs.Clusters))
		for _, c := range cs.Clusters {
			groups = append(groups, c.Members)
		}
		out[name] = groups
	}
	return out
}

func summaryOf(res *sxnm.Result) []CandidateSummary {
	if res == nil {
		return nil
	}
	var out []CandidateSummary
	for _, s := range sxnm.Summarize(res) {
		out = append(out, CandidateSummary{
			Candidate:    s.Candidate,
			Elements:     s.Elements,
			Clusters:     s.Clusters,
			NonSingleton: s.NonSingleton,
			Pairs:        s.Pairs,
		})
	}
	return out
}
