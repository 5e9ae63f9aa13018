package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	sxnm "repro"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/xmltree"
)

// workload is one input set the benchmark runs. Each is built so that
// one group of layers does most of the work (README.md has the shares).
type workload struct {
	name string
	// daemon workloads drive sxnmd over HTTP; the others run the batch
	// pipeline in this process.
	daemon bool
	// size is the movie or disc count at scale 1.
	size int
	// generate builds the document and configuration for a seed.
	generate func(size int, seed int64) (*xmltree.Document, *config.Config, error)
	// goldCandidate and goldPath select the candidate pair_f1 scores.
	goldCandidate, goldPath string
	// f1Docs is how many seeded documents a batch pair_f1 averages: the
	// timed input and f1Docs−1 more, run once untimed with the default
	// options. One document's F1 varies with its seed by more than the
	// metric's bound allows.
	f1Docs int
}

var workloads = map[string]*workload{
	// Front-heavy: the filter prunes ~97% of window pairs, so parse,
	// key generation and output dominate.
	"movies-w3": {
		name: "movies-w3", size: 6000, generate: movies,
		goldCandidate: "movie", goldPath: dataset.MoviePath, f1Docs: 1,
	},
	// Sweep-heavy: four nested candidates, bottom-up with descendant
	// similarity, at window 10 (inside the paper's Fig. 4 range), so
	// detection is the largest layer.
	"freedb-w10": {
		name: "freedb-w10", size: 6000, generate: freedbW10,
		goldCandidate: "disc", goldPath: dataset.DiscPath, f1Docs: 8,
	},
	// Many small runs through the daemon: 1k-movie jobs next to durable
	// spool, checkpoint and journal writes.
	"sxnmd-jobs": {
		name: "sxnmd-jobs", daemon: true, size: 1000, generate: movies,
		goldCandidate: "movie", goldPath: dataset.MoviePath,
	},
}

func movies(n int, seed int64) (*xmltree.Document, *config.Config, error) {
	doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: n, Seed: seed})
	return doc, config.DataSet1(3), err
}

func freedbW10(n int, seed int64) (*xmltree.Document, *config.Config, error) {
	return dataset.DataSet3(n, seed), config.DataSet3(10), nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func (w *workload) scaledSize(scale float64) int {
	return max(int(float64(w.size)*scale), 20)
}

// batchOptions are the options the sxnm CLI passes by default; oracle
// options are the repository's reference path (unfiltered, sequential).
var (
	batchOptions  = sxnm.Options{UseFilter: true, PairWorkers: -1}
	oracleOptions = sxnm.Options{UseFilter: false, PairWorkers: 0}
)

// optionSets records the engine options of both paths with every
// result, so a later change of defaults shows.
var optionSets = map[string]string{
	"batch":  "sxnm CLI defaults: UseFilter=true PairWorkers=-1 Shards=0 SimCache=false SpillThresholdRows=0",
	"oracle": "UseFilter=false PairWorkers=0 (reference clusters, untimed)",
	"daemon": "sxnmd defaults with only -addr and -spool set: -workers 2 -sim-cache=true -pair-workers -1 -spill-rows 0 -journal=true",
}

var xmlWrite = xmltree.WriteOptions{Indent: "  ", Header: true}

// reference is what the untimed oracle run leaves for the timed runs:
// the expected clusters in the daemon's wire form, the planted gold,
// and the pair F1 of the workload's further scored documents.
type reference struct {
	Clusters json.RawMessage `json:"clusters"`
	Gold     map[int]string  `json:"gold"`
	ExtraF1  []float64       `json:"extra_f1"`
}

// prepareBatch runs in a child process, so generation and the oracle
// run never count in the measured process's peak memory. It writes
// input.xml, config.xml and ref.json into dir.
func prepareBatch(w *workload, p params, dir string) error {
	doc, cfg, err := w.generate(w.scaledSize(p.scale), p.seed)
	if err != nil {
		return err
	}
	in, cfgPath := filepath.Join(dir, "input.xml"), filepath.Join(dir, "config.xml")
	if err := doc.WriteFile(in, xmlWrite); err != nil {
		return err
	}
	if err := cfg.Document().WriteFile(cfgPath, xmlWrite); err != nil {
		return err
	}
	// The oracle reads the same file as the timed runs, so element IDs
	// (assigned in parse order) agree.
	ocfg, err := sxnm.LoadConfigFile(cfgPath)
	if err != nil {
		return err
	}
	det, err := sxnm.NewWithOptions(ocfg, oracleOptions)
	if err != nil {
		return err
	}
	odoc, err := xmltree.ParseFile(in)
	if err != nil {
		return err
	}
	res, err := det.Run(odoc)
	if err != nil {
		return fmt.Errorf("oracle run: %w", err)
	}
	var ref reference
	if ref.Clusters, err = json.Marshal(wireClusters(res)); err != nil {
		return err
	}
	g, err := eval.BuildGold(odoc, w.goldPath)
	if err != nil {
		return err
	}
	ref.Gold = g.ByEID
	for k := 1; k < w.f1Docs; k++ {
		f1, err := defaultF1(w, w.scaledSize(p.scale), p.seed*100+int64(k))
		if err != nil {
			return err
		}
		ref.ExtraF1 = append(ref.ExtraF1, f1)
	}
	b, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "ref.json"), b, 0o644)
}

// defaultF1 is the pair F1 of one seeded document run with the default
// batch options.
func defaultF1(w *workload, size int, seed int64) (float64, error) {
	doc, cfg, err := w.generate(size, seed)
	if err != nil {
		return 0, err
	}
	det, err := sxnm.NewWithOptions(cfg, batchOptions)
	if err != nil {
		return 0, err
	}
	res, err := det.Run(doc)
	if err != nil {
		return 0, err
	}
	g, err := eval.BuildGold(doc, w.goldPath)
	if err != nil {
		return 0, err
	}
	return eval.PairwiseMetrics(g, res.Clusters[w.goldCandidate]).F1, nil
}

// wireClusters is the daemon's cluster form: per candidate, clusters in
// ID order with ascending members. Marshalled to JSON it is canonical
// (map keys sorted), so equal bytes mean equal cluster sets.
func wireClusters(res *core.Result) map[string][][]int {
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

// checkClusters reports whether got is byte-identical to the reference
// clusters.
func checkClusters(got map[string][][]int, want []byte) error {
	b, err := json.Marshal(got)
	if err != nil {
		return err
	}
	if string(b) != string(want) {
		return fmt.Errorf("clusters differ from the reference (%d vs %d bytes)", len(b), len(want))
	}
	return nil
}

func goldIndex(byEID map[int]string) *eval.GoldIndex {
	g := &eval.GoldIndex{ByEID: byEID, Clusters: map[string][]int{}}
	for eid, id := range byEID {
		g.Clusters[id] = append(g.Clusters[id], eid)
	}
	return g
}

// pairModel is the sorted-neighbourhood pair count of one pass over n
// rows with window w (Kejriwal & Miranker): (w−1)·n − w(w−1)/2 for
// n ≥ w, every pair for smaller n.
func pairModel(n, w int) int {
	if n < w {
		return n * (n - 1) / 2
	}
	return (w-1)*n - w*(w-1)/2
}

// modelPairs sums pairModel over every candidate and key pass.
func modelPairs(cfg *config.Config, st *core.Stats) int {
	total := 0
	for i := range cfg.Candidates {
		c := &cfg.Candidates[i]
		w := c.Window
		if w == 0 {
			w = cfg.DefaultWindow
		}
		if cs := st.Candidates[c.Name]; cs != nil {
			total += len(c.Keys) * pairModel(cs.Rows, w)
		}
	}
	return total
}
