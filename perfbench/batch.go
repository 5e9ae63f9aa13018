package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	sxnm "repro"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/xmltree"
)

// setupRepeats is how many times a batch invocation loads the config
// and builds the detector before each job; setup_s is the median over
// all of them, so its samples spread over the whole run.
const setupRepeats = 30

// minRuns is the fewest pipeline runs a batch invocation times, even
// when they overrun --seconds.
const minRuns = 3

// pipelineRun is what one timed pipeline leaves behind.
type pipelineRun struct {
	job, pipeline time.Duration
	res           *core.Result
	stats         core.Stats
	modelPairs    int
	outBytes      int64
	// allocs holds the heap bytes and objects allocated per layer, and
	// the whole pipeline's under "pipeline"; set on traced runs only.
	allocs map[string]allocCount
	gc     gcCount
}

type allocCount struct{ bytes, objects uint64 }

type gcCount struct {
	cycles uint32
	pause  time.Duration
}

// runBatch measures one batch workload: the inputs and oracle reference
// come from a child process, then this process times setup and whole
// pipeline runs and checks each run's clusters.
func runBatch(w *workload, p params, dir string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	child := exec.Command(exe, "-prepare", dir, "-workload", w.name,
		"-seed", fmt.Sprint(p.seed), "-scale", fmt.Sprint(p.scale))
	child.Stdout, child.Stderr = os.Stderr, os.Stderr
	if err := child.Run(); err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	var ref reference
	b, err := os.ReadFile(filepath.Join(dir, "ref.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, err
	}
	in, cfgPath, out := filepath.Join(dir, "input.xml"), filepath.Join(dir, "config.xml"), filepath.Join(dir, "output.xml")
	st, err := os.Stat(in)
	if err != nil {
		return nil, err
	}
	inputMB := float64(st.Size()) / 1e6
	gold := goldIndex(ref.Gold)

	rep := newReport(p.trace)
	var setups []float64

	// Traced invocations alternate untraced and traced runs, so the
	// tracing overhead compares runs taken under the same conditions.
	tr := (*tracer)(nil)
	if p.trace {
		tr = newTracer()
	}
	var runs, traced []*pipelineRun
	f1 := -1.0
	least := minRuns
	if p.trace {
		least *= 2
	}
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	for i := 0; i < least || time.Now().Before(deadline); i++ {
		runtime.GC()
		for j := 0; j < setupRepeats; j++ {
			start := time.Now()
			if _, err := newDetector(cfgPath); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		t := tr
		if i%2 == 0 {
			t = nil
		}
		rep.Result.Attempted++
		r, err := runPipeline(cfgPath, in, out, t, i+1)
		if err != nil {
			rep.fail("run %d: %v", i, err)
			continue
		}
		if err := checkClusters(wireClusters(r.res), ref.Clusters); err != nil {
			rep.fail("run %d: %v", i, err)
			continue
		}
		if f := eval.PairwiseMetrics(gold, r.res.Clusters[w.goldCandidate]).F1; f1 < 0 {
			f1 = f
		} else if f != f1 {
			rep.fail("run %d: pair F1 %v differs from the first run's %v", i, f, f1)
			continue
		}
		if t != nil {
			traced = append(traced, r)
		} else {
			runs = append(runs, r)
		}
		r.res = nil
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("every run failed")
	}

	if !p.trace {
		var jobs, pipes []float64
		var total float64
		for _, r := range runs {
			jobs = append(jobs, r.job.Seconds())
			pipes = append(pipes, r.pipeline.Seconds())
			total += r.job.Seconds()
		}
		rep.Raw = map[string][]float64{"setup_s": setups, "run_s": pipes, "job_latency_s": jobs}
		rep.set("setup_s", median(setups), len(setups))
		rep.set("run_s", median(pipes), len(pipes))
		rep.set("job_latency_s", median(jobs), len(jobs))
		rep.set("job_latency_p90_s", quantile(jobs, 0.9), len(jobs))
		rep.set("jobs_per_s", float64(len(jobs))/total, len(jobs))
		rep.set("peak_rss_mb", peakRSSMB(), 1)
		f1s := append([]float64{f1}, ref.ExtraF1...)
		rep.set("pair_f1", mean(f1s), len(f1s))
		return rep, nil
	}
	if len(traced) == 0 {
		return nil, fmt.Errorf("every traced run failed")
	}
	spans := tr.all()
	rep.Spans = spans
	layerMetrics(rep, spans, traced, inputMB)
	pipe := func(rs []*pipelineRun) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = r.pipeline.Seconds()
		}
		return median(xs)
	}
	rep.set("trace.overhead_s", pipe(traced)-pipe(runs), len(traced)+len(runs))
	rep.zeroLayers()
	return rep, nil
}

func newDetector(cfgPath string) (*sxnm.Detector, error) {
	cfg, err := sxnm.LoadConfigFile(cfgPath)
	if err != nil {
		return nil, err
	}
	return sxnm.NewWithOptions(cfg, batchOptions)
}

// runPipeline is one batch job: set up a detector as the CLI does, then
// call each layer's public function in turn, from opening the input to
// the deduplicated document on disk. With a tracer it records a span
// around every layer call and the heap allocated inside it.
func runPipeline(cfgPath, in, out string, tr *tracer, run int) (*pipelineRun, error) {
	ctx := context.Background()
	r := &pipelineRun{allocs: map[string]allocCount{}}
	jobStart := time.Now()
	det, err := newDetector(cfgPath)
	if err != nil {
		return nil, err
	}
	// The workloads' configurations declare no rule expressions, so the
	// detector runs with batchOptions unchanged; the layers get the same.
	cfg := det.Config()
	opts := batchOptions

	var gc0 gcCount
	var a0 allocCount
	if tr != nil {
		gc0, a0 = readGC(), readAllocs()
	}
	pipeStart := time.Now()
	root := tr.begin(run, 0, "pipeline")
	layer := func(name string, fn func() error) error {
		if tr == nil {
			return fn()
		}
		before := readAllocs()
		id := tr.begin(run, root, name)
		err := fn()
		tr.end(id)
		r.allocs[name] = readAllocs().sub(before)
		return err
	}

	var doc *xmltree.Document
	var kg *core.KeyGenResult
	var clean *xmltree.Document
	steps := []struct {
		name string
		fn   func() error
	}{
		{"xmltree.parse", func() (err error) { doc, err = xmltree.ParseFile(in); return }},
		{"core.keygen", func() (err error) { kg, err = core.GenerateKeysContext(ctx, doc, cfg, opts.KeyGenLimits()); return }},
		{"core.detect", func() (err error) { r.res, err = core.DetectContext(ctx, kg, cfg, opts); return }},
		{"sxnm.dedup", func() error { clean = sxnm.Deduplicate(doc, r.res); return nil }},
		{"sxnm.write", func() error { return clean.WriteFile(out, xmlWrite) }},
	}
	for _, s := range steps {
		if err := layer(s.name, s.fn); err != nil {
			tr.end(root)
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	tr.end(root)
	end := time.Now()
	r.stats, r.modelPairs = r.res.Stats, modelPairs(cfg, &r.res.Stats)
	r.pipeline, r.job = end.Sub(pipeStart), end.Sub(jobStart)
	if tr != nil {
		r.allocs["pipeline"] = readAllocs().sub(a0)
		gc1 := readGC()
		r.gc = gcCount{cycles: gc1.cycles - gc0.cycles, pause: gc1.pause - gc0.pause}
	}
	st, err := os.Stat(out)
	if err != nil {
		return nil, err
	}
	r.outBytes = st.Size()
	return r, nil
}

// layerMetrics turns the traced runs into per-layer metrics: self times
// from the spans, allocations from runtime/metrics, and the work counts
// the engine reports in Result.Stats.
func layerMetrics(rep *report, spans []span, traced []*pipelineRun, inputMB float64) {
	self := selfByName(spans)
	n := len(traced)
	setSelf := func(metric, spanName string) float64 {
		v := median(self[spanName])
		rep.set(metric, v, len(self[spanName]))
		return v
	}
	parse := setSelf("xmltree.parse_s", "xmltree.parse")
	rep.set("xmltree.parse_mb_per_s", inputMB/parse, n)
	setSelf("core.keygen_s", "core.keygen")
	setSelf("core.detect_s", "core.detect")
	setSelf("sxnm.dedup_s", "sxnm.dedup")
	setSelf("sxnm.write_s", "sxnm.write")
	setSelf("trace.root_self_s", "pipeline")

	per := func(f func(r *pipelineRun) float64) float64 {
		xs := make([]float64, n)
		for i, r := range traced {
			xs[i] = f(r)
		}
		return median(xs)
	}
	const mb = 1e6
	rep.set("xmltree.parse_alloc_mb", per(func(r *pipelineRun) float64 { return float64(r.allocs["xmltree.parse"].bytes) / mb }), n)
	rep.set("core.keygen_allocs", per(func(r *pipelineRun) float64 { return float64(r.allocs["core.keygen"].objects) }), n)
	rep.set("core.detect_alloc_mb", per(func(r *pipelineRun) float64 { return float64(r.allocs["core.detect"].bytes) / mb }), n)
	rep.set("sxnm.output_mb", per(func(r *pipelineRun) float64 { return float64(r.outBytes) / mb }), n)
	rep.set("runtime.gc_cycles", per(func(r *pipelineRun) float64 { return float64(r.gc.cycles) }), n)
	rep.set("runtime.gc_pause_s", per(func(r *pipelineRun) float64 { return r.gc.pause.Seconds() }), n)
	rep.set("runtime.alloc_mb", per(func(r *pipelineRun) float64 { return float64(r.allocs["pipeline"].bytes) / mb }), n)

	// Work counts are deterministic; the sweep and closure times are
	// the engine's own Stats, medians over the traced runs.
	st := traced[0].stats
	rows, nonSingleton := 0, 0
	for _, c := range st.Candidates {
		rows += c.Rows
		nonSingleton += c.NonSingleton
	}
	windowPairs := 0
	for _, c := range st.Candidates {
		windowPairs += c.WindowPairs
	}
	sweep := per(func(r *pipelineRun) float64 { return r.stats.SlidingWindow.Seconds() })
	attempts := st.Comparisons + st.FilteredOut
	rep.set("core.gk_rows", float64(rows), n)
	rep.set("core.sweep_s", sweep, n)
	rep.set("core.window_pairs", float64(windowPairs), n)
	rep.set("core.window_pairs_model_ratio", float64(windowPairs)/float64(max(traced[0].modelPairs, 1)), n)
	rep.set("similarity.comparisons", float64(st.Comparisons), n)
	rep.set("similarity.filtered_out", float64(st.FilteredOut), n)
	rep.set("similarity.filter_hit_rate", float64(st.FilteredOut)/float64(max(attempts, 1)), n)
	rep.set("similarity.ns_per_attempt", sweep*1e9/float64(max(attempts, 1)), n)
	rep.set("cluster.closure_s", per(func(r *pipelineRun) float64 { return r.stats.TransitiveClosure.Seconds() }), n)
	rep.set("cluster.duplicate_pairs", float64(st.DuplicatePairs), n)
	rep.set("cluster.non_singleton", float64(nonSingleton), n)
}

func (a allocCount) sub(b allocCount) allocCount {
	return allocCount{bytes: a.bytes - b.bytes, objects: a.objects - b.objects}
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

func readAllocs() allocCount {
	s := append([]metrics.Sample(nil), allocSamples...)
	metrics.Read(s)
	return allocCount{bytes: s[0].Value.Uint64(), objects: s[1].Value.Uint64()}
}

// readGC reads the completed GC cycles and the total stop-the-world
// pause time so far.
func readGC() gcCount {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcCount{cycles: ms.NumGC, pause: time.Duration(ms.PauseTotalNs)}
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
