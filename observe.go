package sxnm

import (
	"io"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
)

// Observability re-exports. Attach an Observer via Options.Observer
// (or NewWithOptions) and every phase of the run — parsing, key
// generation, each candidate, each key pass, the sliding window,
// transitive closure, and checkpoint writes — emits spans to the
// attached sinks while live counters stay readable from Metrics. A
// nil Observer costs one pointer test per run.
type (
	// Observer carries one run's tracing and metrics state; construct
	// with NewObserver.
	Observer = obs.Observer
	// TraceSpan is an in-flight span handle (nil-safe).
	TraceSpan = obs.Span
	// TraceRecord is one finished span or event as delivered to sinks.
	TraceRecord = obs.Record
	// TraceAttr is one key/value attribute of a span or event.
	TraceAttr = obs.Attr
	// TraceSink receives finished spans and events; implementations
	// must be safe for concurrent use.
	TraceSink = obs.Sink
	// TraceRing is a bounded in-memory sink keeping the most recent
	// records.
	TraceRing = obs.Ring
	// TraceJSONL streams records to a writer as JSON lines.
	TraceJSONL = obs.JSONL
	// RotatingTraceJSONL is a path-bound TraceJSONL with size-capped
	// rotation (path → path.1 → …), for long-running traces.
	RotatingTraceJSONL = obs.RotatingJSONL
	// PhaseLatencies is a sink folding every completed span into a
	// per-phase latency Histogram.
	PhaseLatencies = obs.PhaseHistograms
	// LatencyHistogram is a fixed log-bucket latency histogram; the
	// zero value is ready to use and Observe is atomic.
	LatencyHistogram = obs.Histogram
	// LatencySummary is the count/mean/p50/p90/p99/max digest of a
	// LatencyHistogram, as it appears in report.json.
	LatencySummary = obs.LatencySummary
	// RunMetrics is the live atomic counter/gauge set of a run (the
	// name Metrics is taken by the evaluation package's quality
	// metrics). Its FilteredOut counter tracks the pairs the
	// threshold-aware filter skipped; report.json surfaces the derived
	// filter_hit_rate.
	RunMetrics = obs.Metrics
	// MetricsSnapshot is a point-in-time copy of Metrics with derived
	// rates; it marshals to JSON and renders to Prometheus text format.
	MetricsSnapshot = obs.Snapshot
	// Collector assembles a machine-readable Report from a run's spans.
	Collector = obs.Collector
	// Report is the machine-readable run summary (report.json).
	Report = obs.Report
	// CandidateReport and PassReport are the per-candidate and per-pass
	// slices of a Report.
	CandidateReport = obs.CandidateReport
	PassReport      = obs.PassReport
	// Progress renders periodic one-line run summaries to a writer,
	// adapting its cadence to whether the writer is a TTY.
	Progress = obs.Progress
)

// ReportSchema identifies the report.json layout version.
const ReportSchema = obs.ReportSchema

// NewObserver returns an enabled Observer with the given sinks
// attached. An observer without sinks still counts metrics; spans are
// only materialized once a sink is attached.
func NewObserver(sinks ...TraceSink) *Observer { return obs.New(sinks...) }

// NewTraceRing returns an in-memory sink holding the most recent
// capacity records.
func NewTraceRing(capacity int) *TraceRing { return obs.NewRing(capacity) }

// NewTraceJSONL returns a sink streaming every record to w as one JSON
// object per line. Call Flush (or Close) before reading the output.
func NewTraceJSONL(w io.Writer) *TraceJSONL { return obs.NewJSONL(w) }

// NewRotatingTraceJSONL opens (or appends to) a JSONL trace at path,
// rotating it whenever it would exceed maxBytes (≤0 = never) and
// keeping at most keep rotated segments.
func NewRotatingTraceJSONL(path string, maxBytes int64, keep int) (*RotatingTraceJSONL, error) {
	return obs.NewRotatingJSONL(path, maxBytes, keep)
}

// NewPhaseLatencies returns an empty per-phase latency sink; attach it
// to an Observer to collect engine phase duration histograms.
func NewPhaseLatencies() *PhaseLatencies { return obs.NewPhaseHistograms() }

// LintPrometheus validates a Prometheus text exposition the way a
// scraper would — the shared contract test for every exporter in this
// repo.
func LintPrometheus(data []byte) error { return obs.LintPrometheus(data) }

// NewCollector returns a sink that assembles a Report; attach it to an
// observer alongside (or instead of) trace sinks.
func NewCollector() *Collector { return obs.NewCollector() }

// NewProgress returns a progress printer over m writing to w; pass
// interval 0 for TTY-adaptive defaults.
func NewProgress(w io.Writer, m *RunMetrics, interval time.Duration) *Progress {
	return obs.NewProgress(w, m, interval)
}

// ParseTrace decodes records previously written by a TraceJSONL sink.
func ParseTrace(r io.Reader) ([]TraceRecord, error) { return obs.ParseJSONL(r) }

// ConfigFingerprint returns the SHA-256 fingerprint of a validated
// configuration — the identity stamped into checkpoints and run
// reports.
func ConfigFingerprint(cfg *Config) (string, error) {
	return checkpoint.ConfigFingerprint(cfg)
}

// DocumentFingerprint returns the SHA-256 fingerprint of a parsed
// document's canonical serialization.
func DocumentFingerprint(doc *Document) (string, error) {
	return checkpoint.DocumentFingerprint(doc)
}
