package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/dataset"
)

// BenchmarkDetectNested sizes the nested window sweep in-package: Data
// set 3 (2k discs and their dtitle, artist and track-title candidates,
// bottom-up) at window 10, detected with the sxnm CLI's default options
// (filtered classifier, pair workers on every core). Key generation is
// outside the timer. Besides ns/op and allocs/op it reports
// ns/window-pair, the sweep cost per unit of the sorted-neighborhood
// pair model.
//
//	go test -run '^$' -bench DetectNested -benchtime 5x ./internal/core
func BenchmarkDetectNested(b *testing.B) {
	cfg := config.DataSet3(10)
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	kg, err := GenerateKeys(dataset.DataSet3(2000, 1), cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{UseFilter: true, PairWorkers: -1}
	b.ReportAllocs()
	b.ResetTimer()
	var pairs int
	for i := 0; i < b.N; i++ {
		res, err := Detect(kg, cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, cs := range res.Stats.Candidates {
			pairs += cs.WindowPairs
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/window-pair")
}
