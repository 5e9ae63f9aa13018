package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilObserverIsNoOp(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Error("nil observer reports enabled")
	}
	o.SetEnabled(true)
	o.AddSink(NewRing(1))
	o.Event("x")
	if o.Metrics() != nil {
		t.Error("nil observer returned metrics")
	}
	sp := o.StartSpan("root")
	if sp != nil {
		t.Fatal("nil observer returned a span")
	}
	// The nil span chain must also absorb everything.
	sp.SetAttr(Int("a", 1))
	sp.Event("e")
	child := sp.Child("c")
	child.End()
	sp.End()
}

func TestObserverWithoutSinksEmitsNothing(t *testing.T) {
	o := New()
	if !o.Enabled() {
		t.Fatal("New() observer should be enabled")
	}
	if sp := o.StartSpan("root"); sp != nil {
		t.Error("span handed out with no sink attached")
	}
}

func TestSpanHierarchyAndAttrs(t *testing.T) {
	ring := NewRing(16)
	o := New(ring)
	root := o.StartSpan("detect", Int("n", 2))
	child := root.Child("candidate", String(AttrCandidate, "movie"))
	child.SetAttr(Int(AttrComparisons, 7))
	child.End()
	child.End() // idempotent: must not emit twice
	root.End()

	recs := ring.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	// Children end first.
	if recs[0].Name != "candidate" || recs[1].Name != "detect" {
		t.Fatalf("order = %s, %s", recs[0].Name, recs[1].Name)
	}
	if recs[0].Parent != recs[1].ID {
		t.Error("child span not parented to root")
	}
	if recs[0].AttrString(AttrCandidate) != "movie" || recs[0].AttrInt(AttrComparisons) != 7 {
		t.Errorf("attrs = %v", recs[0].Attrs)
	}
	if recs[1].Kind != "span" || recs[1].Dur <= 0 {
		t.Errorf("root record = %+v", recs[1])
	}
}

func TestLatestAttrWins(t *testing.T) {
	r := Record{Attrs: []Attr{Int("x", 1), Int("x", 2)}}
	if r.AttrInt("x") != 2 {
		t.Errorf("AttrInt = %d, want latest value 2", r.AttrInt("x"))
	}
	if _, ok := r.Attr("missing"); ok {
		t.Error("missing attr reported present")
	}
}

func TestDisabledObserverStopsEmission(t *testing.T) {
	ring := NewRing(4)
	o := New(ring)
	o.SetEnabled(false)
	if o.Enabled() {
		t.Fatal("still enabled")
	}
	o.StartSpan("x").End()
	o.Event("y")
	if got := len(ring.Records()); got != 0 {
		t.Errorf("disabled observer emitted %d records", got)
	}
}

func TestRingOverflow(t *testing.T) {
	ring := NewRing(3)
	o := New(ring)
	for i := 0; i < 5; i++ {
		o.Event(fmt.Sprintf("e%d", i))
	}
	recs := ring.Records()
	if len(recs) != 3 {
		t.Fatalf("retained = %d, want 3", len(recs))
	}
	// Oldest first, keeping the most recent three.
	for i, want := range []string{"e2", "e3", "e4"} {
		if recs[i].Name != want {
			t.Errorf("recs[%d] = %s, want %s", i, recs[i].Name, want)
		}
	}
	if ring.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", ring.Dropped())
	}
}

func TestConcurrentEmission(t *testing.T) {
	ring := NewRing(4096)
	col := NewCollector()
	o := New(ring, col)
	m := o.Metrics()

	const workers = 8
	const spansPer = 50
	var wg sync.WaitGroup
	root := o.StartSpan("detect")
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < spansPer; i++ {
				sp := root.Child(SpanCandidate, String(AttrCandidate, fmt.Sprintf("c%d-%d", w, i)))
				sp.SetAttr(Int(AttrComparisons, 1))
				sp.Event("tick")
				m.Comparisons.Add(1)
				m.SampleHeap()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()

	recs := ring.Records()
	want := workers*spansPer*2 + 1 // span + event each, plus root
	if len(recs) != want {
		t.Fatalf("records = %d, want %d", len(recs), want)
	}
	if m.Comparisons.Load() != workers*spansPer {
		t.Errorf("comparisons = %d", m.Comparisons.Load())
	}
	rep := col.Report(m)
	if len(rep.Candidates) != workers*spansPer {
		t.Errorf("collector candidates = %d", len(rep.Candidates))
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	o := New(j)
	sp := o.StartSpan("keygen", Int(AttrRows, 42), String("note", "hi"),
		Float("ratio", 0.5), Bool(AttrInterrupted, false))
	sp.End()
	o.Event(EventResume, Int64(AttrResumedPairs, 7))
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("parsed %d records", len(recs))
	}
	if recs[0].Name != "keygen" || recs[0].Kind != "span" {
		t.Errorf("rec0 = %+v", recs[0])
	}
	// Attr types must survive the trip: int64 stays int64, float stays
	// float64, bool stays bool.
	if v, _ := recs[0].Attr(AttrRows); v != int64(42) {
		t.Errorf("rows attr = %v (%T), want int64(42)", v, v)
	}
	if v, _ := recs[0].Attr("ratio"); v != 0.5 {
		t.Errorf("ratio attr = %v (%T)", v, v)
	}
	if v, _ := recs[0].Attr(AttrInterrupted); v != false {
		t.Errorf("bool attr = %v (%T)", v, v)
	}
	if recs[1].AttrInt(AttrResumedPairs) != 7 {
		t.Errorf("event attr = %v", recs[1].Attrs)
	}
	if !reflect.DeepEqual(recs[0].Attrs, []Attr{
		Int(AttrRows, 42), String("note", "hi"), Float("ratio", 0.5), Bool(AttrInterrupted, false),
	}) {
		t.Errorf("attrs after round trip = %#v", recs[0].Attrs)
	}
}

// errWriter fails after n successful writes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	w.n--
	return len(p), nil
}

func TestJSONLStickyError(t *testing.T) {
	j := NewJSONL(&errWriter{n: 0})
	o := New(j)
	// Overflow the 4KiB bufio buffer so the write error surfaces.
	big := strings.Repeat("x", 2048)
	for i := 0; i < 8; i++ {
		o.Event("e", String("pad", big))
	}
	if j.Err() == nil && j.Flush() == nil {
		t.Fatal("write error not surfaced")
	}
	// Further emission must not panic or block.
	o.Event("after")
	if err := j.Flush(); err == nil {
		t.Error("sticky error cleared")
	}
}

func TestMetricsSnapshotAndRates(t *testing.T) {
	var m Metrics
	m.MarkStart()
	m.Comparisons.Store(300)
	m.FilteredOut.Store(100)
	m.WindowPairs.Store(400)
	time.Sleep(10 * time.Millisecond)
	s := m.Snapshot()
	if s.Comparisons != 300 || s.FilteredOut != 100 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.FilterHitRate != 0.25 {
		t.Errorf("filter hit rate = %v, want 0.25", s.FilterHitRate)
	}
	if s.ElapsedSeconds <= 0 || s.ComparisonsPerSec <= 0 {
		t.Errorf("rates not derived: %+v", s)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"comparisons":300`)) {
		t.Errorf("snapshot json = %s", b)
	}
}

func TestNilMetricsMethods(t *testing.T) {
	var m *Metrics
	m.MarkStart()
	m.SampleHeap()
	if m.Elapsed() != 0 {
		t.Error("nil metrics elapsed != 0")
	}
	if s := m.Snapshot(); s != (Snapshot{}) {
		t.Errorf("nil metrics snapshot = %+v", s)
	}
	if err := m.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
}

// TestMarkStartElapsedConcurrent races MarkStart against Elapsed (as
// the engine and a progress reporter do); run under -race it proves the
// start time is published safely, and that the first MarkStart wins.
func TestMarkStartElapsedConcurrent(t *testing.T) {
	var m Metrics
	if m.Elapsed() != 0 {
		t.Fatal("elapsed before MarkStart != 0")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			m.MarkStart()
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if m.Elapsed() < 0 {
					t.Error("negative elapsed")
				}
			}
		}()
	}
	wg.Wait()
	first := m.start.Load()
	m.MarkStart()
	if m.start.Load() != first {
		t.Error("second MarkStart moved the baseline")
	}
	if m.Elapsed() < 0 {
		t.Error("negative elapsed after MarkStart")
	}
}

func TestSampleHeapTracksPeak(t *testing.T) {
	var m Metrics
	m.SampleHeap()
	if m.HeapInUse.Load() <= 0 {
		t.Fatal("heap sample is zero")
	}
	if m.PeakHeap.Load() < m.HeapInUse.Load() {
		t.Error("peak below current")
	}
	// Peak must never decrease.
	m.HeapInUse.Store(0)
	peak := m.PeakHeap.Load()
	m.SampleHeap()
	if m.PeakHeap.Load() < peak {
		t.Error("peak decreased")
	}
}

func TestWritePrometheus(t *testing.T) {
	var m Metrics
	m.Comparisons.Store(12)
	m.DuplicatePairs.Store(3)
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP sxnm_comparisons_total",
		"# TYPE sxnm_comparisons_total counter",
		"sxnm_comparisons_total 12",
		"sxnm_duplicate_pairs_total 3",
		"# TYPE sxnm_heap_in_use_bytes gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	// Every row renders a HELP/TYPE/sample triple.
	if got := strings.Count(out, "# HELP "); got != len(promRows) {
		t.Errorf("HELP lines = %d, want %d", got, len(promRows))
	}
}

func TestPublishExpvarRepublish(t *testing.T) {
	var m1, m2 Metrics
	m1.Comparisons.Store(1)
	m2.Comparisons.Store(2)
	m1.PublishExpvar("sxnm_test")
	m2.PublishExpvar("sxnm_test") // must not panic, must re-point
	var got Snapshot
	// expvar renders via the holder's String.
	s := expvarString(t, "sxnm_test")
	if err := json.Unmarshal([]byte(s), &got); err != nil {
		t.Fatalf("expvar value %q: %v", s, err)
	}
	if got.Comparisons != 2 {
		t.Errorf("expvar shows %d comparisons, want the republished 2", got.Comparisons)
	}
}

func expvarString(t *testing.T, name string) string {
	t.Helper()
	v := expvar.Get(name)
	if v == nil {
		t.Fatalf("expvar %q not published", name)
	}
	return v.String()
}

func TestCollectorReport(t *testing.T) {
	col := NewCollector()
	o := New(col)

	kg := o.StartSpan(SpanKeyGen, Int(AttrRows, 10))
	kg.End()
	det := o.StartSpan(SpanDetect)
	cand := det.Child(SpanCandidate, String(AttrCandidate, "movie"),
		Int(AttrRows, 10), Int(AttrWindow, 5), Int(AttrKeys, 2))
	p0 := cand.Child(SpanPass, String(AttrCandidate, "movie"), Int(AttrPass, 0))
	p0.SetAttr(Int(AttrWindowPairs, 30), Int(AttrComparisons, 20), Int(AttrDuplicatePairs, 2))
	p0.End()
	p1 := cand.Child(SpanPass, String(AttrCandidate, "movie"), Int(AttrPass, 1))
	p1.SetAttr(Int(AttrWindowPairs, 25), Int(AttrComparisons, 15), Int(AttrDuplicatePairs, 1))
	p1.End()
	cand.SetAttr(Int(AttrWindowPairs, 55), Int(AttrComparisons, 35),
		Int(AttrFilteredOut, 5), Int(AttrDuplicatePairs, 3),
		Int(AttrClusters, 7), Int(AttrNonSingleton, 2),
		Int64(AttrSWNanos, int64(4*time.Millisecond)),
		Int64(AttrTCNanos, int64(time.Millisecond)))
	cand.End()
	o.Event(SpanCheckpoint, Int(AttrBytes, 128))
	det.End()

	rep := col.Report(o.Metrics())
	if rep.Schema != ReportSchema {
		t.Errorf("schema = %q", rep.Schema)
	}
	if len(rep.Candidates) != 1 {
		t.Fatalf("candidates = %d", len(rep.Candidates))
	}
	cr := rep.Candidates[0]
	if cr.Name != "movie" || cr.Rows != 10 || cr.Window != 5 || cr.Keys != 2 {
		t.Errorf("candidate header = %+v", cr)
	}
	if len(cr.Passes) != 2 || cr.Passes[0].Pass != 0 || cr.Passes[1].Pass != 1 {
		t.Fatalf("passes = %+v", cr.Passes)
	}
	if cr.Passes[0].WindowPairs != 30 || cr.Passes[1].Comparisons != 15 {
		t.Errorf("pass deltas = %+v", cr.Passes)
	}
	if rep.Totals.Comparisons != 35 || rep.Totals.DuplicatePairs != 3 || rep.Totals.Clusters != 7 {
		t.Errorf("totals = %+v", rep.Totals)
	}
	if rep.FilterHitRate != 5.0/40.0 {
		t.Errorf("filter hit rate = %v", rep.FilterHitRate)
	}
	if rep.SlidingWindowCPUMS != 4 || rep.TransitiveClosureCPUMS != 1 {
		t.Errorf("cpu sums = %v / %v", rep.SlidingWindowCPUMS, rep.TransitiveClosureCPUMS)
	}
	if rep.Checkpoint == nil || rep.Checkpoint.Writes != 1 || rep.Checkpoint.Bytes != 128 {
		t.Errorf("checkpoint = %+v", rep.Checkpoint)
	}
	if rep.KeyGenMS < 0 || rep.DetectWallMS <= 0 {
		t.Errorf("phase times = %v / %v", rep.KeyGenMS, rep.DetectWallMS)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report.json does not parse: %v", err)
	}
	if back.Totals != rep.Totals {
		t.Errorf("totals after round trip = %+v", back.Totals)
	}
}

func TestCollectorExcludesInterruptedFromTotals(t *testing.T) {
	col := NewCollector()
	o := New(col)
	done := o.StartSpan(SpanCandidate, String(AttrCandidate, "a"),
		Int(AttrComparisons, 10), Int(AttrDuplicatePairs, 1))
	done.End()
	cut := o.StartSpan(SpanCandidate, String(AttrCandidate, "b"),
		Int(AttrComparisons, 99), Bool(AttrInterrupted, true))
	cut.End()
	rep := col.Report(nil)
	if rep.Totals.Comparisons != 10 {
		t.Errorf("totals include interrupted candidate: %+v", rep.Totals)
	}
	if len(rep.Candidates) != 2 {
		t.Errorf("interrupted candidate missing from listing: %d", len(rep.Candidates))
	}
	for _, cr := range rep.Candidates {
		if cr.Name == "b" && !cr.Interrupted {
			t.Error("interrupted flag lost")
		}
	}
}

func TestCollectorResumeProvenance(t *testing.T) {
	col := NewCollector()
	o := New(col)
	o.Event(EventResume, Int(AttrCompleted, 2), Int64(AttrResumedPairs, 40))
	mid := o.StartSpan(SpanCandidate, String(AttrCandidate, "movie"),
		Bool(AttrResumed, false), Int(AttrNextPass, 1))
	mid.End()
	rep := col.Report(nil)
	if rep.Resume == nil {
		t.Fatal("resume provenance missing")
	}
	if rep.Resume.CompletedCandidates != 2 || rep.Resume.SeededPairs != 40 {
		t.Errorf("resume = %+v", rep.Resume)
	}
	if rep.Resume.NextPass["movie"] != 1 {
		t.Errorf("next pass map = %v", rep.Resume.NextPass)
	}
}

func TestFormatProgress(t *testing.T) {
	s := Snapshot{
		CandidatesDone: 1, CandidatesTotal: 3, PassesDone: 4,
		WindowPairs: 500, ExpectedWindowPairs: 1000,
		Comparisons: 400, ComparisonsPerSec: 100,
		DuplicatePairs: 7, HeapInUse: 2 << 20,
		ElapsedSeconds: 4,
	}
	line := FormatProgress(s)
	for _, want := range []string{
		"candidates 1/3", "passes 4", "(50%)", "eta 4s", "400 cmp (100/s)", "7 dups", "2.0MiB",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q missing %q", line, want)
		}
	}
	// Without an estimate the line omits percent and ETA.
	s.ExpectedWindowPairs = 0
	line = FormatProgress(s)
	if strings.Contains(line, "%") || strings.Contains(line, "eta") {
		t.Errorf("estimate-free line still has percent/eta: %q", line)
	}
}

func TestProgressWriterLifecycle(t *testing.T) {
	var buf bytes.Buffer
	var m Metrics
	m.MarkStart()
	p := NewProgress(&buf, &m, time.Millisecond)
	p.Start()
	p.Start() // double start is a no-op
	time.Sleep(10 * time.Millisecond)
	p.Stop()
	p.Stop() // double stop is a no-op
	out := buf.String()
	if !strings.Contains(out, "sxnm: candidates") {
		t.Errorf("no progress lines: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("final line not newline-terminated")
	}
}
