package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/xmltree"
)

// The sequential sweep reads the compared-pair set only when an earlier
// pass or a resume filled it, and writes it only while a later pass
// remains. These tests pin that gating against a reference sweep that
// always looks up and always inserts, and pin the invariant the gating
// rests on: EIDs are unique per GK table, so no pair repeats within a
// pass.

// refSweep is one reference run of a single candidate, reduced to what
// the gating must not change.
type refSweep struct {
	clusters string
	stats    CandidateStats // WindowPairs, Comparisons, FilteredOut, DuplicatePairs
	obs      []PairObservation
}

// referenceSweep sweeps tab's passes from prog.NextPass (0 without
// prog) the plain way: stable sort, fixed or adaptive window, and a
// compared-set lookup plus insert for every window pair. It serves
// candidates without descendants.
func referenceSweep(t *testing.T, tab *GKTable, prog *CandidateProgress, opts Options) refSweep {
	t.Helper()
	cand := tab.Candidate
	if opts.UseFilter {
		ensureSketches(tab)
	}
	compared := make(map[uint64]struct{})
	var pairs []cluster.Pair
	start := 0
	if prog != nil {
		start = prog.NextPass
		pairs = append(pairs, prog.Pairs...)
		for _, p := range prog.Pairs {
			compared[packPair(p.A, p.B)] = struct{}{}
		}
	}
	var res refSweep
	n := len(tab.Rows)
	for pass := start; pass < len(cand.CompiledKeys()); pass++ {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return gkRowLess(&tab.Rows[order[a]], &tab.Rows[order[b]], pass)
		})
		ring := newRowRing(n)
		for i, idx := range order {
			row := &tab.Rows[idx]
			ring.push(i, row)
			if i == 0 {
				continue
			}
			lo := max(i-(cand.Window-1), 0)
			if cand.AdaptiveKeySim > 0 {
				lo = adaptiveLow(ring, row, i, lo, pass, cand)
			}
			for j := lo; j < i; j++ {
				a := ring.at(j)
				res.stats.WindowPairs++
				key := packPair(a.EID, row.EID)
				if _, seen := compared[key]; seen {
					continue
				}
				compared[key] = struct{}{}
				odSim, descSim, hasDesc, dup, filtered, err := comparePair(tab, a, row, false, opts)
				if err != nil {
					t.Fatal(err)
				}
				if filtered {
					res.stats.FilteredOut++
				} else {
					res.stats.Comparisons++
				}
				res.obs = append(res.obs, PairObservation{
					Candidate: cand.Name, KeyIndex: pass,
					A: min(a.EID, row.EID), B: max(a.EID, row.EID),
					ODSim: odSim, DescSim: descSim, HasDesc: hasDesc,
					Duplicate: dup, Filtered: filtered,
				})
				if dup {
					pairs = append(pairs, cluster.MakePair(a.EID, row.EID))
				}
			}
		}
	}
	uf := cluster.NewUnionFind()
	for i := range tab.Rows {
		uf.Add(tab.Rows[i].EID)
	}
	for _, p := range pairs {
		uf.Union(p.A, p.B)
	}
	res.clusters = cluster.Build(uf).String()
	res.stats.DuplicatePairs = len(pairs)
	return res
}

// gatedSweep runs the engine over kg and reduces the candidate's
// outcome to a refSweep, counting compared-set operations into ops.
func gatedSweep(t *testing.T, kg *KeyGenResult, cfg *config.Config, cand string, prog *CandidateProgress, opts Options, ops *int) refSweep {
	t.Helper()
	var res refSweep
	opts.PairObserver = func(o PairObservation) { res.obs = append(res.obs, o) }
	if prog != nil {
		opts.Resume = &ResumeState{Progress: map[string]*CandidateProgress{cand: prog}}
	}
	comparedOps = ops
	defer func() { comparedOps = nil }()
	out, err := Detect(kg, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	cs := out.Stats.Candidates[cand]
	res.clusters = out.Clusters[cand].String()
	res.stats = CandidateStats{
		WindowPairs: cs.WindowPairs, Comparisons: cs.Comparisons,
		FilteredOut: cs.FilteredOut, DuplicatePairs: cs.DuplicatePairs,
	}
	return res
}

func comparedMoviesConfig(t *testing.T, keys int, adaptive bool) *config.Config {
	t.Helper()
	cfg := config.DataSet1(5)
	c := &cfg.Candidates[0]
	c.Keys = c.Keys[:keys]
	if adaptive {
		c.AdaptiveKeySim = 0.85
	}
	return mustValidate(t, cfg)
}

func TestComparedSetGatingMatchesReference(t *testing.T) {
	doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 150, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	single := comparedMoviesConfig(t, 1, false)
	multi := comparedMoviesConfig(t, 3, false)
	adaptive := comparedMoviesConfig(t, 3, true)

	// Seed pairs for the resumed cases: every other duplicate pass 0
	// finds, so the seeded set both hits and misses in the first pass.
	kgSeed, err := GenerateKeys(doc, single)
	if err != nil {
		t.Fatal(err)
	}
	pass0 := referenceSweep(t, kgSeed.Tables["movie"], nil, Options{})
	var seed []cluster.Pair
	for i, o := range pass0.obs {
		if o.Duplicate && i%2 == 0 {
			seed = append(seed, cluster.MakePair(o.A, o.B))
		}
	}
	if len(seed) == 0 {
		t.Fatal("corpus yields no duplicate pairs to seed a resume with")
	}

	cases := []struct {
		name string
		cfg  *config.Config
		prog *CandidateProgress
		// noOps: the run must never touch the compared set.
		noOps bool
	}{
		{name: "single-pass", cfg: single, noOps: true},
		{name: "single-pass-seeded", cfg: single, prog: &CandidateProgress{NextPass: 0, Pairs: seed}},
		{name: "three-pass", cfg: multi},
		{name: "adaptive", cfg: adaptive},
		{name: "resume-pass1", cfg: multi, prog: &CandidateProgress{NextPass: 1, Pairs: seed}},
		{name: "resume-pass2-empty", cfg: multi, prog: &CandidateProgress{NextPass: 2}, noOps: true},
		{name: "resume-pass0-seeded", cfg: multi, prog: &CandidateProgress{NextPass: 0, Pairs: seed}},
	}
	for _, tc := range cases {
		for _, opts := range []Options{
			{},
			{UseFilter: true},
			{UseFilter: true, PairWorkers: 3},
		} {
			t.Run(fmt.Sprintf("%s/filter=%v/workers=%d", tc.name, opts.UseFilter, opts.PairWorkers), func(t *testing.T) {
				kg, err := GenerateKeys(doc, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceSweep(t, kg.Tables["movie"], tc.prog, opts)
				var ops int
				got := gatedSweep(t, kg, tc.cfg, "movie", tc.prog, opts, &ops)
				if got.clusters != want.clusters {
					t.Errorf("clusters differ from the reference sweep:\n got %s\nwant %s", got.clusters, want.clusters)
				}
				if got.stats != want.stats {
					t.Errorf("stats = %+v, reference %+v", got.stats, want.stats)
				}
				if !reflect.DeepEqual(got.obs, want.obs) {
					t.Errorf("pair observations differ from the reference sweep (%d vs %d)", len(got.obs), len(want.obs))
				}
				if tc.noOps && ops != 0 {
					t.Errorf("compared-set operations = %d, want none", ops)
				}
				if !tc.noOps && ops == 0 {
					t.Error("compared set never consulted where a pair can repeat")
				}
			})
		}
	}
}

// TestGKTablesHaveUniqueEIDs pins the invariant the compared-set gating
// relies on, for every way a sweep can receive rows: tree key
// generation, streaming key generation, and rows decoded from spilled
// runs.
func TestGKTablesHaveUniqueEIDs(t *testing.T) {
	movies, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 80, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	corpora := []struct {
		name string
		doc  *xmltree.Document
		cfg  *config.Config
	}{
		{"movies", movies, mustValidate(t, config.DataSet1(3))},
		{"freedb", dataset.DataSet3(60, 2), mustValidate(t, config.DataSet3(4))},
	}
	for _, c := range corpora {
		var buf bytes.Buffer
		if err := c.doc.Write(&buf, xmltree.WriteOptions{}); err != nil {
			t.Fatal(err)
		}
		tree, err := GenerateKeys(c.doc, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := GenerateKeysStream(&buf, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, tab := range tree.Tables {
			checkUniqueEIDs(t, c.name+"/tree/"+name, tab.Rows)
			checkUniqueEIDs(t, c.name+"/stream/"+name, stream.Tables[name].Rows)
			st := newSpillState(Options{SpillThresholdRows: 3, SpillDir: t.TempDir()}, nil)
			sp := newCandSpiller(st, tab, false, nil)
			for pass := range tab.Candidate.CompiledKeys() {
				src, err := sp.source(pass, nil, newBudget(context.Background(), Limits{}))
				if err != nil {
					t.Fatal(err)
				}
				var rows []GKRow
				for {
					r, err := src.next()
					if err != nil {
						t.Fatal(err)
					}
					if r == nil {
						break
					}
					rows = append(rows, *r)
				}
				src.close()
				if len(rows) != len(tab.Rows) {
					t.Fatalf("%s/%s: spill pass %d decoded %d rows, table has %d", c.name, name, pass, len(rows), len(tab.Rows))
				}
				checkUniqueEIDs(t, fmt.Sprintf("%s/spill/%s/pass%d", c.name, name, pass), rows)
			}
		}
	}
}

func checkUniqueEIDs(t *testing.T, label string, rows []GKRow) {
	t.Helper()
	if len(rows) == 0 {
		t.Fatalf("%s: empty table", label)
	}
	seen := make(map[int]bool, len(rows))
	for _, r := range rows {
		if seen[r.EID] {
			t.Fatalf("%s: EID %d appears twice", label, r.EID)
		}
		seen[r.EID] = true
	}
}

// TestSortPassMatchesStableSort checks the unstable pass sort against
// sort.SliceStable under gkRowLess, on heavy key ties — and on a table
// that breaks the unique-EID rule, where the row-index tiebreak must
// still reproduce the stable order.
func TestSortPassMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := []string{"", "a", "a", "ab", "\xff", "zz"}
	for _, dupEIDs := range []bool{false, true} {
		rows := make([]GKRow, 200)
		for i := range rows {
			eid := i*7 + 1
			if dupEIDs {
				eid = rng.Intn(20)
			}
			rows[i] = GKRow{EID: eid, Keys: []string{keys[rng.Intn(len(keys))]}}
		}
		want := make([]int, len(rows))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return gkRowLess(&rows[want[a]], &rows[want[b]], 0) })
		got := make([]int, len(rows))
		sortPass(got, rows, 0)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("dupEIDs=%v: sortPass order differs from the stable sort", dupEIDs)
		}
	}
}
