package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names; the benchmark's tests keep the two in step.
type metricDef struct {
	name, unit string
	endToEnd   bool
}

// metricDefs is every metric the benchmark reports. End-to-end metrics
// are printed with --trace 0, per-layer metrics with --trace 1. Every
// workload prints every metric of its mode: a layer a workload does not
// run reports 0 for its per-layer metrics.
var metricDefs = []metricDef{
	{"setup_s", "s", true},
	{"run_s", "s", true},
	{"job_latency_s", "s", true},
	{"job_latency_p90_s", "s", true},
	{"jobs_per_s", "1/s", true},
	{"peak_rss_mb", "MB", true},
	{"pair_f1", "ratio", true},
	{"ok_ratio", "ratio", true},

	{"xmltree.parse_s", "s", false},
	{"xmltree.parse_mb_per_s", "MB/s", false},
	{"xmltree.parse_alloc_mb", "MB", false},
	{"core.keygen_s", "s", false},
	{"core.keygen_allocs", "count", false},
	{"core.gk_rows", "count", false},
	{"core.detect_s", "s", false},
	{"core.detect_alloc_mb", "MB", false},
	{"core.sweep_s", "s", false},
	{"core.window_pairs", "count", false},
	{"core.window_pairs_model_ratio", "ratio", false},
	{"similarity.comparisons", "count", false},
	{"similarity.filtered_out", "count", false},
	{"similarity.filter_hit_rate", "ratio", false},
	{"similarity.ns_per_attempt", "ns", false},
	{"cluster.closure_s", "s", false},
	{"cluster.duplicate_pairs", "count", false},
	{"cluster.non_singleton", "count", false},
	{"sxnm.dedup_s", "s", false},
	{"sxnm.write_s", "s", false},
	{"sxnm.output_mb", "MB", false},
	{"runtime.gc_cycles", "count", false},
	{"runtime.gc_pause_s", "s", false},
	{"runtime.alloc_mb", "MB", false},
	{"server.submit_s", "s", false},
	{"server.fetch_s", "s", false},
	{"server.queue_wait_s", "s", false},
	{"server.attempt_s", "s", false},
	{"server.engine_keygen_s", "s", false},
	{"server.engine_detect_s", "s", false},
	{"server.sim_cache_hit_rate", "ratio", false},
	{"server.spool_bytes_per_job", "bytes", false},
	{"server.rejected", "count", false},
	{"server.retries", "count", false},
	{"trace.root_self_s", "s", false},
	{"trace.overhead_s", "s", false},
}

func unitOf(name string) (string, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d.unit, true
		}
	}
	return "", false
}

func metricsFor(traced bool) []metricDef {
	var out []metricDef
	for _, d := range metricDefs {
		if d.endToEnd != traced {
			out = append(out, d)
		}
	}
	return out
}

// zeroLayers reports 0 for every per-layer metric not set yet: the
// layers the workload does not run.
func (r *report) zeroLayers() {
	for _, d := range metricsFor(true) {
		if _, ok := r.Result.Metrics[d.name]; !ok {
			r.set(d.name, 0, 0)
		}
	}
}

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// fingerprint identifies the host and the code a result was measured
// on. It travels with every results file: compare only results whose
// host part (CPU, nproc, GOMAXPROCS, Go version) matches.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit when the checkout is a repository;
	// SourceSHA256 hashes the module's Go sources and go.mod, which
	// identifies the code under test in any checkout.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s src=%.12s",
		f.CPU, f.NProc, f.GOMAXPROCS, f.GoVersion, f.Commit, f.SourceSHA256)
}

func hostFingerprint(root string) fingerprint {
	f := fingerprint{
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       "unknown",
		SourceSHA256: sourceDigest(root),
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			f.Commit = strings.TrimSpace(string(out))
		}
	}
	return f
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes go.mod and every .go file under root, skipping
// hidden directories (the build directory among them).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
