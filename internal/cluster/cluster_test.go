package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUnionFindBasics(t *testing.T) {
	u := NewUnionFind()
	if u.Same(1, 2) {
		t.Error("fresh ids should be distinct sets")
	}
	if !u.Union(1, 2) {
		t.Error("first union should merge")
	}
	if u.Union(1, 2) {
		t.Error("second union should be a no-op")
	}
	if !u.Same(1, 2) {
		t.Error("1 and 2 should be same after union")
	}
	u.Union(2, 3)
	if !u.Same(1, 3) {
		t.Error("transitivity violated")
	}
	if u.Len() != 3 {
		t.Errorf("Len = %d, want 3", u.Len())
	}
	if u.Unions() != 2 {
		t.Errorf("Unions = %d, want 2", u.Unions())
	}
}

func TestUnionFindSelfUnion(t *testing.T) {
	u := NewUnionFind()
	if u.Union(7, 7) {
		t.Error("self union should be a no-op")
	}
	if !u.Same(7, 7) {
		t.Error("element should equal itself")
	}
}

func TestSetsDeterministic(t *testing.T) {
	u := NewUnionFind()
	for _, p := range [][2]int{{5, 3}, {9, 1}, {3, 9}, {10, 10}} {
		u.Union(p[0], p[1])
	}
	u.Add(7)
	sets := u.Sets()
	// Expect {1,3,5,9}, {7}, {10} ordered by smallest member.
	if len(sets) != 3 {
		t.Fatalf("got %d sets: %v", len(sets), sets)
	}
	want := [][]int{{1, 3, 5, 9}, {7}, {10}}
	for i := range want {
		if len(sets[i]) != len(want[i]) {
			t.Fatalf("set %d = %v, want %v", i, sets[i], want[i])
		}
		for j := range want[i] {
			if sets[i][j] != want[i][j] {
				t.Errorf("set %d = %v, want %v", i, sets[i], want[i])
			}
		}
	}
}

// Property: union is commutative and order-independent — any
// permutation of the same pair list yields the same partition.
func TestUnionOrderIndependent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30
		var pairs [][2]int
		for i := 0; i < 25; i++ {
			pairs = append(pairs, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		u1 := NewUnionFind()
		for i := 0; i < n; i++ {
			u1.Add(i)
		}
		for _, p := range pairs {
			u1.Union(p[0], p[1])
		}
		u2 := NewUnionFind()
		for i := 0; i < n; i++ {
			u2.Add(i)
		}
		perm := rng.Perm(len(pairs))
		for _, i := range perm {
			u2.Union(pairs[i][0], pairs[i][1])
		}
		s1, s2 := u1.Sets(), u2.Sets()
		if len(s1) != len(s2) {
			return false
		}
		for i := range s1 {
			if len(s1[i]) != len(s2[i]) {
				return false
			}
			for j := range s1[i] {
				if s1[i][j] != s2[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMakePair(t *testing.T) {
	if p := MakePair(5, 2); p.A != 2 || p.B != 5 {
		t.Errorf("MakePair(5,2) = %v", p)
	}
	if p := MakePair(2, 5); p.A != 2 || p.B != 5 {
		t.Errorf("MakePair(2,5) = %v", p)
	}
}

func TestBuildClusterSet(t *testing.T) {
	u := NewUnionFind()
	for i := 1; i <= 6; i++ {
		u.Add(i)
	}
	u.Union(1, 3)
	u.Union(4, 5)
	cs := Build(u)
	if cs.Len() != 4 {
		t.Fatalf("Len = %d, want 4", cs.Len())
	}
	if cs.Elements() != 6 {
		t.Errorf("Elements = %d, want 6", cs.Elements())
	}
	// Every element in exactly one cluster (Def. 1).
	seen := map[int]bool{}
	for _, c := range cs.Clusters {
		for _, m := range c.Members {
			if seen[m] {
				t.Errorf("element %d in two clusters", m)
			}
			seen[m] = true
			if id, ok := cs.CID(m); !ok || id != c.ID {
				t.Errorf("CID(%d) = %d,%v want %d", m, id, ok, c.ID)
			}
		}
	}
	if _, ok := cs.CID(99); ok {
		t.Error("CID of unknown element should report false")
	}
}

func TestClusterLookup(t *testing.T) {
	cs := FromPairs([]int{1, 2, 3}, []Pair{{A: 1, B: 2}})
	if c := cs.Cluster(1); c == nil || len(c.Members) != 2 {
		t.Errorf("Cluster(1) = %v", c)
	}
	if cs.Cluster(0) != nil || cs.Cluster(99) != nil {
		t.Error("out-of-range cluster IDs should return nil")
	}
}

func TestFromPairsSingletons(t *testing.T) {
	cs := FromPairs([]int{10, 20, 30}, nil)
	if cs.Len() != 3 {
		t.Errorf("Len = %d, want 3 singletons", cs.Len())
	}
	if len(cs.NonSingletons()) != 0 {
		t.Error("no duplicates expected")
	}
}

func TestDuplicatePairsTransitiveClosure(t *testing.T) {
	// Pairs (1,2) and (2,3) must close to (1,2),(1,3),(2,3).
	cs := FromPairs([]int{1, 2, 3, 4}, []Pair{{A: 1, B: 2}, {A: 2, B: 3}})
	pairs := cs.DuplicatePairs()
	want := []Pair{{1, 2}, {1, 3}, {2, 3}}
	if len(pairs) != len(want) {
		t.Fatalf("pairs = %v, want %v", pairs, want)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Errorf("pairs[%d] = %v, want %v", i, pairs[i], want[i])
		}
	}
}

func TestNonSingletons(t *testing.T) {
	cs := FromPairs([]int{1, 2, 3, 4, 5}, []Pair{{A: 1, B: 2}, {A: 4, B: 5}})
	ns := cs.NonSingletons()
	if len(ns) != 2 {
		t.Fatalf("NonSingletons = %v", ns)
	}
}

// Property: Build assigns cluster IDs 1..m and DuplicatePairs count
// matches sum over clusters of k·(k−1)/2.
func TestClusterSetInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20
		universe := make([]int, n)
		for i := range universe {
			universe[i] = i + 100
		}
		var pairs []Pair
		for i := 0; i < 10; i++ {
			pairs = append(pairs, MakePair(universe[rng.Intn(n)], universe[rng.Intn(n)]))
		}
		// Filter self-pairs.
		var clean []Pair
		for _, p := range pairs {
			if p.A != p.B {
				clean = append(clean, p)
			}
		}
		cs := FromPairs(universe, clean)
		wantPairs := 0
		for i, c := range cs.Clusters {
			if c.ID != i+1 {
				return false
			}
			k := len(c.Members)
			wantPairs += k * (k - 1) / 2
		}
		return len(cs.DuplicatePairs()) == wantPairs && cs.Elements() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	cs := FromPairs([]int{1, 2}, []Pair{{A: 1, B: 2}})
	if got := cs.String(); got != "1: [1 2]\n" {
		t.Errorf("String = %q", got)
	}
}

func TestPairCountMatchesDuplicatePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		universe := make([]int, n)
		for i := range universe {
			universe[i] = i + 1
		}
		var pairs []Pair
		for k := rng.Intn(n + 1); k > 0; k-- {
			pairs = append(pairs, MakePair(1+rng.Intn(n), 1+rng.Intn(n)))
		}
		cs := FromPairs(universe, pairs)
		if got, want := cs.PairCount(), len(cs.DuplicatePairs()); got != want {
			t.Fatalf("trial %d: PairCount = %d, len(DuplicatePairs) = %d", trial, got, want)
		}
	}
}
