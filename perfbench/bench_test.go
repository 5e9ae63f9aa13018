package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	sxnm "repro"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a batch run re-executes itself to prepare its inputs.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-prepare" {
		if err := run(os.Args[1:], os.Stdout); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// table the benchmark prints from in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	bj := readBenchmarkJSON(t)
	want := func(traced bool) []string {
		var out []string
		for _, d := range metricsFor(traced) {
			out = append(out, d.name+" "+d.unit)
		}
		sort.Strings(out)
		return out
	}
	var e2e, layers, names []string
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	sort.Strings(names)
	if strings.Join(e2e, ",") != strings.Join(want(false), ",") {
		t.Errorf("end_to_end = %v, benchmark reports %v", e2e, want(false))
	}
	if strings.Join(layers, ",") != strings.Join(want(true), ",") {
		t.Errorf("per_layer = %v, benchmark reports %v", layers, want(true))
	}
	if strings.Join(names, ", ") != workloadNames() {
		t.Errorf("workloads = %v, benchmark has %s", names, workloadNames())
	}
}

// buildSxnmd builds the daemon from the enclosing repository.
func buildSxnmd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sxnmd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sxnmd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building sxnmd: %v\n%s", err, out)
	}
	return bin
}

var tableLine = regexp.MustCompile(`^(\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)$`)

// TestWorkloadsTiny runs every workload in both modes at a tiny seeded
// size and checks the output: a correct result line with every metric
// of the mode and its unit, the table with a sample count per metric,
// and, for traced runs, spans that nest.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sxnmd := buildSxnmd(t)
	root := t.TempDir()
	scales := map[string]string{"movies-w3": "0.01", "freedb-w10": "0.01", "sxnmd-jobs": "0.05"}
	for _, name := range strings.Split(workloadNames(), ", ") {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", name, "--seed", "7", "--seconds", "0.3", "--trace", trace,
					"-scale", scales[name], "-root", root, "-sxnmd", sxnmd}
				if err := run(args, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]map[string]any
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				table := map[string]string{}
				var resultsFile string
				for _, l := range lines {
					if m := tableLine.FindStringSubmatch(l); m != nil {
						table[m[1]] = m[3]
					}
					if f, ok := strings.CutPrefix(l, "# results: "); ok {
						resultsFile = f
					}
				}
				defs := metricsFor(trace == "1")
				if len(res.Metrics) != len(defs) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s missing", d.name)
						continue
					}
					if m["unit"] != d.unit || table[d.name] != d.unit {
						t.Errorf("metric %s: unit %v, table unit %q, want %s", d.name, m["unit"], table[d.name], d.unit)
					}
					if _, ok := m["value"].(float64); !ok {
						t.Errorf("metric %s: value %v is not a number", d.name, m["value"])
					}
				}
				if trace == "0" {
					for _, n := range []string{"setup_s", "run_s", "job_latency_s", "peak_rss_mb", "pair_f1", "ok_ratio"} {
						if v := res.Metrics[n]["value"].(float64); v <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", n, v)
						}
					}
					return
				}
				if !strings.HasPrefix(name, "sxnmd") {
					if v := res.Metrics["core.window_pairs_model_ratio"]["value"].(float64); v != 1 {
						t.Errorf("window pairs / sorted-neighbourhood model = %v, want 1 for fixed windows", v)
					}
				}
				b, err := os.ReadFile(resultsFile)
				if err != nil {
					t.Fatal(err)
				}
				var rep report
				if err := json.Unmarshal(b, &rep); err != nil {
					t.Fatal(err)
				}
				if rep.Fingerprint.CPU == "" || rep.Fingerprint.GoVersion == "" || rep.Fingerprint.NProc < 1 {
					t.Errorf("results file lacks the host fingerprint: %+v", rep.Fingerprint)
				}
				checkSpansNest(t, rep.Spans)
			})
		}
	}
}

// checkSpansNest asserts that every child span lies inside its parent
// within the same run, and that self times are non-negative and never
// exceed the parent span.
func checkSpansNest(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := selfTimes(spans)
	children := map[int]time.Duration{}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
		if self[s.ID] < 0 || self[s.ID] > s.dur() {
			t.Errorf("span %s: self time %v outside [0, %v]", s.Name, self[s.ID], s.dur())
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Run != s.Run {
			t.Errorf("span %s: parent %d missing or in another run", s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %s [%d,%d] outside parent %s [%d,%d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		children[s.Parent] += self[s.ID]
	}
	for id, d := range children {
		if d > byID[id].dur() {
			t.Errorf("children of %s have %v self time, more than its %v", byID[id].Name, d, byID[id].dur())
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Run: 1, ID: 1, Name: "root", Start: 0, End: 100},
		{Run: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Run: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{Run: 1, ID: 4, Parent: 3, Name: "c", Start: 50, End: 70}, // overruns b
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 30, 3: 20, 4: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
}

// TestCheckClustersCatchesCorruption runs the oracle over a small
// document and checks that moving one element to another cluster, or
// dropping a candidate, fails the comparison while the untouched
// clusters pass.
func TestCheckClustersCatchesCorruption(t *testing.T) {
	doc, cfg, err := movies(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	det, err := sxnm.NewWithOptions(cfg, oracleOptions)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Run(doc)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := json.Marshal(wireClusters(res))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := sxnm.NewWithOptions(cfg, batchOptions)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := fast.Run(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkClusters(wireClusters(fres), ref); err != nil {
		t.Fatalf("default path differs from the oracle: %v", err)
	}

	moved := wireClusters(res)
	groups := moved["movie"]
	if len(groups) < 2 {
		t.Fatal("need two clusters to corrupt")
	}
	last := len(groups[0]) - 1
	groups[1] = append(groups[1], groups[0][last])
	groups[0] = groups[0][:last]
	if err := checkClusters(moved, ref); err == nil {
		t.Error("an element moved between clusters went unnoticed")
	}
	dropped := wireClusters(res)
	delete(dropped, "movie")
	if err := checkClusters(dropped, ref); err == nil {
		t.Error("a missing candidate went unnoticed")
	}
}

func TestPairModel(t *testing.T) {
	for n := 0; n <= 30; n++ {
		for w := 2; w <= 12; w++ {
			brute := 0
			for i := 0; i < n; i++ {
				brute += min(i, w-1)
			}
			if got := pairModel(n, w); got != brute {
				t.Errorf("pairModel(%d, %d) = %d, want %d", n, w, got, brute)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-9 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
}

// TestDaemonPoolDistinct checks that no two daemon job bodies are the
// same, and that body i depends only on the seed, not on which segment
// or goroutine generated it.
func TestDaemonPoolDistinct(t *testing.T) {
	w := workloads["sxnmd-jobs"]
	p := params{seed: 3, scale: 0.05}
	all, err := daemonPool(w, p, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := daemonPool(w, p, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i, d := range all {
		if j, ok := seen[string(d.body)]; ok {
			t.Errorf("bodies %d and %d are the same", j, i)
		}
		seen[string(d.body)] = i
	}
	for i, d := range tail {
		if !bytes.Equal(d.body, all[3+i].body) || !bytes.Equal(d.ref, all[3+i].ref) {
			t.Errorf("body %d differs when generated from offset 3", 3+i)
		}
	}
}
