package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/similarity"
)

// descendantSimilarityMap is the map-based Def. 3 implementation the
// name-sorted lists replaced: resolve each type's l_e list into a map,
// take the union of type names, sort it, skip types empty on both
// sides, and average the map-based Overlap. It is the oracle for
// descendantSimilarity.
func descendantSimilarityMap(a, b *GKRow, clusters map[string]*cluster.ClusterSet) (float64, bool) {
	la, lb := resolveDescMap(a, clusters), resolveDescMap(b, clusters)
	if la == nil && lb == nil {
		return 0, false
	}
	types := make(map[string]struct{}, len(la)+len(lb))
	for name := range la {
		types[name] = struct{}{}
	}
	for name := range lb {
		types[name] = struct{}{}
	}
	names := make([]string, 0, len(types))
	for name := range types {
		names = append(names, name)
	}
	sort.Strings(names)
	var sims []float64
	for _, name := range names {
		if len(la[name]) == 0 && len(lb[name]) == 0 {
			continue
		}
		sims = append(sims, similarity.Overlap(la[name], lb[name]))
	}
	if len(sims) == 0 {
		return 0, false
	}
	return similarity.Average(sims), true
}

func resolveDescMap(row *GKRow, clusters map[string]*cluster.ClusterSet) map[string][]int {
	if len(row.Desc) == 0 {
		return nil
	}
	out := make(map[string][]int, len(row.Desc))
	for name, eids := range row.Desc {
		cs, ok := clusters[name]
		if !ok {
			continue
		}
		cids := make([]int, 0, len(eids))
		for _, eid := range eids {
			if cid, ok := cs.CID(eid); ok {
				cids = append(cids, cid)
			}
		}
		out[name] = cids
	}
	return out
}

// descTestClusters builds three descendant cluster sets over EIDs
// 100..129: "artist" and "title" merge EIDs in threes, "dtitle" in
// twos. EIDs 200+ belong to no cluster set; candidate "ghost" has none.
func descTestClusters() map[string]*cluster.ClusterSet {
	universe := make([]int, 0, 30)
	for eid := 100; eid < 130; eid++ {
		universe = append(universe, eid)
	}
	var threes, twos []cluster.Pair
	for eid := 100; eid < 130; eid++ {
		if eid%3 != 0 {
			threes = append(threes, cluster.MakePair(eid, eid-eid%3))
		}
		if eid%2 != 0 {
			twos = append(twos, cluster.MakePair(eid, eid-1))
		}
	}
	return map[string]*cluster.ClusterSet{
		"artist": cluster.FromPairs(universe, threes),
		"title":  cluster.FromPairs(universe, threes),
		"dtitle": cluster.FromPairs(universe, twos),
	}
}

// checkDescSim resolves both rows, then checks the slice walk against
// the map oracle, bit for bit.
func checkDescSim(t *testing.T, label string, a, b GKRow, clusters map[string]*cluster.ClusterSet) {
	t.Helper()
	wantSim, wantHas := descendantSimilarityMap(&a, &b, clusters)
	resolveRowDescClusters(&a, clusters)
	resolveRowDescClusters(&b, clusters)
	gotSim, gotHas := descendantSimilarity(&a, &b)
	if gotHas != wantHas || math.Float64bits(gotSim) != math.Float64bits(wantSim) {
		t.Errorf("%s: descendantSimilarity = (%v, %v), map oracle (%v, %v)", label, gotSim, gotHas, wantSim, wantHas)
	}
}

func TestDescendantSimilarityMatchesMapOracle(t *testing.T) {
	clusters := descTestClusters()
	cases := []struct {
		name string
		a, b map[string][]int
	}{
		{"no-descendants", nil, nil},
		{"one-side-no-descendants", map[string][]int{"title": {100, 101}}, nil},
		{"one-sided-type-names", map[string][]int{"artist": {100}}, map[string][]int{"title": {100}}},
		{"empty-list-both", map[string][]int{"title": {}}, map[string][]int{"title": {}}},
		{"empty-list-one-side", map[string][]int{"title": {}}, map[string][]int{"title": {104}}},
		{"empty-list-beside-data", map[string][]int{"title": {}, "artist": {100, 103}}, map[string][]int{"artist": {101, 103}}},
		{"unclustered-eids", map[string][]int{"title": {200, 201}}, map[string][]int{"title": {202}}},
		{"unknown-candidate", map[string][]int{"ghost": {100}}, map[string][]int{"ghost": {100}, "title": {101}}},
		{"multiset-repeats", map[string][]int{"title": {100, 101, 102, 103}}, map[string][]int{"title": {102, 102, 105}}},
		{"three-types-interleaved",
			map[string][]int{"artist": {110, 120}, "dtitle": {111, 112, 113}, "title": {100}},
			map[string][]int{"artist": {121}, "dtitle": {110, 114}, "title": {129, 101}}},
	}
	for _, tc := range cases {
		checkDescSim(t, tc.name, GKRow{EID: 1, Desc: tc.a}, GKRow{EID: 2, Desc: tc.b}, clusters)
		checkDescSim(t, tc.name+"/swapped", GKRow{EID: 2, Desc: tc.b}, GKRow{EID: 1, Desc: tc.a}, clusters)
	}

	// Random rows over the same universe: any mix of names, empty
	// lists, unclustered EIDs and repeats.
	rng := rand.New(rand.NewSource(17))
	names := []string{"artist", "dtitle", "ghost", "title"}
	randDesc := func() map[string][]int {
		if rng.Intn(5) == 0 {
			return nil
		}
		d := make(map[string][]int)
		for _, name := range names {
			if rng.Intn(2) == 0 {
				continue
			}
			eids := []int{}
			for k := rng.Intn(5); k > 0; k-- {
				eids = append(eids, 100+rng.Intn(32)) // 130, 131: unclustered
			}
			d[name] = eids
		}
		return d
	}
	for i := 0; i < 500; i++ {
		checkDescSim(t, fmt.Sprintf("random-%d", i), GKRow{EID: 1, Desc: randDesc()}, GKRow{EID: 2, Desc: randDesc()}, clusters)
	}
}

// TestDescendantSimilarityAllocFree pins the point of the sorted
// representation: once rows are resolved, a pair's Def. 3 similarity
// allocates nothing.
func TestDescendantSimilarityAllocFree(t *testing.T) {
	clusters := descTestClusters()
	a := GKRow{EID: 1, Desc: map[string][]int{"artist": {100, 103}, "dtitle": {110, 111}, "title": {120, 121, 122}}}
	b := GKRow{EID: 2, Desc: map[string][]int{"artist": {101}, "title": {120, 125}}}
	resolveRowDescClusters(&a, clusters)
	resolveRowDescClusters(&b, clusters)
	if n := testing.AllocsPerRun(100, func() { descendantSimilarity(&a, &b) }); n != 0 {
		t.Errorf("descendantSimilarity allocates %v times per pair, want 0", n)
	}
}
