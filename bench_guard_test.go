package sxnm

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataset"
)

// Bench-regression guard for the window-sweep hot path. Two modes,
// both off by default so `go test ./...` stays fast and deterministic:
//
//	SXNM_BENCH_RECORD=1  go test -run TestBenchGuard .   # (make bench-baseline)
//	    measures every windowSweepCases entry and writes the ns/op map
//	    under the "bench_ns_per_op" key of BENCH_sxnm.json, preserving
//	    the rest of the committed run report.
//	SXNM_BENCH_CHECK=1   go test -run TestBenchGuard .   # (make bench-check)
//	    re-measures and fails if any case regresses more than 15%
//	    against the recorded baseline. On machines with ≥4 usable CPUs
//	    it additionally requires the 4-worker sweep to beat the
//	    sequential one by ≥1.5× — on fewer cores that bar is physically
//	    unreachable, so only the per-case regression check applies.
//	SXNM_BENCH_MERGE=report.json go test -run TestBenchGuard .   # (make bench)
//	    replaces the run-report portion of BENCH_sxnm.json with the
//	    given freshly generated report while PRESERVING the committed
//	    bench_ns_per_op baselines. `make bench` regenerates the report
//	    through this mode; without it, rewriting the report wholesale
//	    silently destroyed the ns/op baselines.
const (
	benchBaselineFile = "BENCH_sxnm.json"
	benchNsKey        = "bench_ns_per_op"
	benchTolerance    = 0.15
	// The spilled cases are disk-bound, and filesystem latency jitters
	// far more run-to-run than the CPU-bound sweeps, so they get a
	// looser drift bar.
	benchSpillTolerance = 0.35
	benchMinSpeedup     = 1.5
	// The threshold-aware filter is CPU-bound and deterministic, so it
	// gets a hard floor: the filtered sequential sweep must resolve the
	// same pair stream at least this much faster than the unfiltered one.
	benchFilterSpeedup = 2.0
)

// measureWindowSweep runs each sweep case — the worker/filter matrix
// plus the external-sort spill matrix — through testing.Benchmark
// (default 1s benchtime) and returns ns/op keyed by case name. Each
// case takes the best of two rounds: the sweep is deterministic CPU
// work, so the minimum is the measurement and the gap between rounds
// is scheduler noise — single samples on busy machines drift far more
// than the regression tolerance.
func measureWindowSweep() map[string]float64 {
	out := make(map[string]float64, len(windowSweepCases)+len(spillSweepCases))
	for round := 0; round < 2; round++ {
		cases := append([]struct {
			name string
			opts core.Options
		}{}, windowSweepCases...)
		cases = append(cases, spillSweepCases...)
		for _, c := range cases {
			opts := c.opts
			r := testing.Benchmark(func(b *testing.B) { benchWindowSweep(b, opts) })
			if ns := float64(r.NsPerOp()); round == 0 || ns < out[c.name] {
				out[c.name] = ns
			}
		}
	}
	return out
}

func TestBenchGuard(t *testing.T) {
	record := os.Getenv("SXNM_BENCH_RECORD") == "1"
	check := os.Getenv("SXNM_BENCH_CHECK") == "1"
	merge := os.Getenv("SXNM_BENCH_MERGE")
	if !record && !check && merge == "" {
		t.Skip("set SXNM_BENCH_RECORD=1, SXNM_BENCH_CHECK=1, or SXNM_BENCH_MERGE=report.json (make bench-baseline / bench-check / bench)")
	}
	raw, err := os.ReadFile(benchBaselineFile)
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	// The baseline file is the committed run report; decode it loosely
	// so recording touches only the ns/op key.
	var report map[string]any
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("parse %s: %v", benchBaselineFile, err)
	}

	if merge != "" {
		// Swap in a fresh run report, carrying the committed ns/op
		// baselines over: report refreshes and perf baselines have
		// independent lifecycles, and `make bench` must never eat the
		// latter as a side effect of the former.
		fresh, err := os.ReadFile(merge)
		if err != nil {
			t.Fatalf("read fresh report: %v", err)
		}
		var next map[string]any
		if err := json.Unmarshal(fresh, &next); err != nil {
			t.Fatalf("parse %s: %v", merge, err)
		}
		if ns, ok := report[benchNsKey]; ok {
			next[benchNsKey] = ns
		}
		out, err := json.MarshalIndent(next, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchBaselineFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("merged %s into %s, preserving %q", merge, benchBaselineFile, benchNsKey)
		return
	}
	measured := measureWindowSweep()
	for name, ns := range measured {
		t.Logf("%-16s %12.0f ns/op", name, ns)
	}

	if record {
		report[benchNsKey] = measured
		out, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchBaselineFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d window-sweep baselines into %s", len(measured), benchBaselineFile)
		return
	}

	base, ok := report[benchNsKey].(map[string]any)
	if !ok {
		t.Fatalf("%s has no %q key — run `make bench-baseline` first", benchBaselineFile, benchNsKey)
	}
	spilled := map[string]bool{}
	for _, c := range spillSweepCases {
		if c.opts.SpillThresholdRows > 0 {
			spilled[c.name] = true
		}
	}
	for name := range measured {
		want, ok := base[name].(float64)
		if !ok {
			t.Errorf("baseline is missing case %q — re-run `make bench-baseline`", name)
			continue
		}
		tol := benchTolerance
		if spilled[name] {
			tol = benchSpillTolerance
		}
		got := measured[name]
		if limit := want * (1 + tol); got > limit {
			t.Errorf("%s regressed: %.0f ns/op vs baseline %.0f (+%.0f%% > %.0f%% tolerance)",
				name, got, want, (got/want-1)*100, tol*100)
		}
	}
	// The spill gate must be free when disabled: a run with
	// SpillThresholdRows=0 takes the exact in-memory path, so it may not
	// drift from the sequential sweep beyond tolerance.
	if off, seq := measured["spill-off"], measured["seq"]; off > seq*(1+benchTolerance) {
		t.Errorf("spill-off sweep %.0f ns/op is %.0f%% over the plain sequential %.0f",
			off, (off/seq-1)*100, seq)
	}
	if procs := runtime.GOMAXPROCS(0); procs >= 4 {
		speedup := measured["seq"] / measured["workers4"]
		if speedup < benchMinSpeedup {
			t.Errorf("4-worker sweep speedup %.2fx < %.1fx on %d CPUs", speedup, benchMinSpeedup, procs)
		} else {
			t.Logf("4-worker sweep speedup: %.2fx on %d CPUs", speedup, procs)
		}
	} else {
		t.Logf("skipping %.1fx speedup assertion: only %d usable CPU(s)", benchMinSpeedup, procs)
	}
	if speedup := measured["seq"] / measured["filtered"]; speedup < benchFilterSpeedup {
		t.Errorf("filtered sweep speedup %.2fx < %.1fx over the unfiltered sequential sweep",
			speedup, benchFilterSpeedup)
	} else {
		t.Logf("filtered sweep speedup: %.2fx", speedup)
	}
	checkFilterEffect(t, report)
}

// checkFilterEffect asserts the filter is live, not vestigial: a
// filters-on detection over the movie corpus must skip a positive
// fraction of attempted comparisons, and the committed run report —
// regenerated by `make bench`, which runs the CLI with its default
// -filter=true — must carry that rate.
func checkFilterEffect(t *testing.T, report map[string]any) {
	if rate, ok := report["filter_hit_rate"].(float64); !ok || rate <= 0 {
		t.Errorf("committed %s filter_hit_rate = %v, want > 0 — re-run `make bench`",
			benchBaselineFile, report["filter_hit_rate"])
	}
	doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DataSet1(5)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	kg, err := core.GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Detect(kg, cfg, core.Options{UseFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	attempted := res.Stats.Comparisons + res.Stats.FilteredOut
	if attempted == 0 || res.Stats.FilteredOut == 0 {
		t.Fatalf("filters-on movie run skipped nothing: comparisons=%d filtered=%d",
			res.Stats.Comparisons, res.Stats.FilteredOut)
	}
	t.Logf("movie-corpus filter hit rate: %.1f%% (%d of %d attempted)",
		100*float64(res.Stats.FilteredOut)/float64(attempted), res.Stats.FilteredOut, attempted)
}
