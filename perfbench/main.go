// Command perfbench is the repository's end-to-end benchmark for SXNM.
//
// It generates each workload in process from internal/dataset with the
// seed it is given, runs the default pipeline layer by layer (parse,
// key generation, detection, output) or drives a freshly built sxnmd
// over HTTP, checks every output against the repository's oracle path,
// and prints one JSON result as its last line of standard output:
//
//	bash perfbench/run.sh --workload movies-w3 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics, taken from a traced run
// that records a span around every layer call. See README.md for the
// workloads and the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// params are the command-line settings of one invocation.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every workload's input size; the benchmark's own
	// tests run at a tiny scale.
	scale float64
	root  string
	sxnmd string
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		p       params
		trace   int
		prepare string
	)
	fs.StringVar(&p.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&p.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&p.seconds, "seconds", 30, "how long the timed phase runs")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	fs.Float64Var(&p.scale, "scale", 1, "input size multiplier")
	fs.StringVar(&p.root, "root", ".", "repository checkout the benchmark runs in")
	fs.StringVar(&p.sxnmd, "sxnmd", "", "sxnmd binary built from the checkout (default <root>/.bench_build/sxnmd)")
	fs.StringVar(&prepare, "prepare", "", "internal: generate the batch inputs and oracle reference into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[p.workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want one of %s)", p.workload, workloadNames())
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	p.trace = trace == 1
	if p.seconds <= 0 || p.scale <= 0 {
		return errors.New("-seconds and -scale must be positive")
	}
	if prepare != "" {
		return prepareBatch(w, p, prepare)
	}
	if p.sxnmd == "" {
		p.sxnmd = filepath.Join(p.root, ".bench_build", "sxnmd")
	}
	dir := filepath.Join(p.root, ".bench_build", "work", fmt.Sprintf("%s-seed%d-pid%d", p.workload, p.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	measure := runBatch
	if w.daemon {
		measure = runDaemon
	}
	rep, err := measure(w, p, dir)
	if err != nil {
		return err
	}
	rep.Fingerprint = hostFingerprint(p.root)
	rep.Workload, rep.Seed, rep.Seconds, rep.Traced = p.workload, p.seed, p.seconds, p.trace
	rep.Options = optionSets
	if err := rep.check(); err != nil {
		return err
	}
	path, err := saveReport(p.root, rep)
	if err != nil {
		return err
	}
	printTable(stdout, rep)
	fmt.Fprintf(stdout, "# results: %s\n", path)
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// metric is one reported value; the JSON form is what the result line
// carries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many measurements the value summarizes; it is
	// printed in the table, not in the result line.
	Samples int `json:"-"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one invocation's complete record, saved next to the build
// so results always travel with the host they were measured on.
type report struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Options     map[string]string `json:"options"`
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Traced      bool              `json:"traced"`
	Result      result            `json:"result"`
	Samples     map[string]int    `json:"samples"`
	// FailedRatio is failed ÷ attempted; ok_ratio in the metrics is its
	// complement, so that no end-to-end metric reads 0 on a clean run.
	FailedRatio float64 `json:"failed_ratio"`
	// Raw holds the per-operation samples behind the end-to-end timings.
	Raw   map[string][]float64 `json:"raw,omitempty"`
	Spans []span               `json:"spans,omitempty"`
}

func newReport(traced bool) *report {
	return &report{Result: result{Correct: true, Metrics: map[string]metric{}}, Traced: traced}
}

// set records a metric under its registered unit.
func (r *report) set(name string, value float64, samples int) {
	u, ok := unitOf(name)
	if !ok {
		panic("perfbench: unregistered metric " + name)
	}
	r.Result.Metrics[name] = metric{Value: value, Unit: u, Samples: samples}
}

// fail counts one failed operation and marks the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.Result.Failed++
	r.Result.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
}

// check completes the report: every metric of the invocation's mode is
// present and finite, and the failure ratio is derived.
func (r *report) check() error {
	if r.Result.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	r.FailedRatio = float64(r.Result.Failed) / float64(r.Result.Attempted)
	if !r.Traced {
		r.set("ok_ratio", 1-r.FailedRatio, r.Result.Attempted)
	}
	r.Samples = map[string]int{}
	for _, d := range metricsFor(r.Traced) {
		m, ok := r.Result.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if m.Value != m.Value || m.Value > 1e300 || m.Value < -1e300 {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		r.Samples[d.name] = m.Samples
	}
	return nil
}

func printTable(w io.Writer, r *report) {
	names := make([]string, 0, len(r.Result.Metrics))
	for n := range r.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d seconds=%g traced=%v attempted=%d failed=%d failed_ratio=%g\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Result.Attempted, r.Result.Failed, r.FailedRatio)
	fmt.Fprintf(w, "# host: %s\n", r.Fingerprint)
	for _, n := range names {
		m := r.Result.Metrics[n]
		fmt.Fprintf(w, "%-36s %16.6g %-8s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
}

func saveReport(root string, r *report) (string, error) {
	dir := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	mode := "e2e"
	if r.Traced {
		mode = "trace"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s-%s.json",
		r.Workload, r.Seed, mode, time.Now().UTC().Format("20060102T150405.000")))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
