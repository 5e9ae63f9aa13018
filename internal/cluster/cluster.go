// Package cluster implements the transitive-closure machinery of SXNM:
// a union-find structure over element IDs and the cluster sets of
// Definition 1, which assign every element instance to exactly one
// cluster representing one real-world object.
package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// UnionFind is a disjoint-set forest over arbitrary int element IDs
// with path compression and union by size. Elements are registered
// lazily: an ID that was never seen is its own singleton set.
type UnionFind struct {
	parent map[int]int
	size   map[int]int
	unions int
}

// NewUnionFind returns an empty union-find.
func NewUnionFind() *UnionFind {
	return &UnionFind{parent: make(map[int]int), size: make(map[int]int)}
}

// Add registers id as a singleton if it is not yet known.
func (u *UnionFind) Add(id int) {
	if _, ok := u.parent[id]; !ok {
		u.parent[id] = id
		u.size[id] = 1
	}
}

// Find returns the representative of id's set, registering id if new.
func (u *UnionFind) Find(id int) int {
	u.Add(id)
	root := id
	for u.parent[root] != root {
		root = u.parent[root]
	}
	for u.parent[id] != root { // path compression
		u.parent[id], id = root, u.parent[id]
	}
	return root
}

// Union merges the sets containing a and b and reports whether a merge
// happened (false if they were already in the same set).
func (u *UnionFind) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	u.unions++
	return true
}

// Same reports whether a and b are currently in the same set.
func (u *UnionFind) Same(a, b int) bool { return u.Find(a) == u.Find(b) }

// Len returns the number of registered elements.
func (u *UnionFind) Len() int { return len(u.parent) }

// Unions returns the number of successful merges performed.
func (u *UnionFind) Unions() int { return u.unions }

// Sets returns the current partition as a slice of ID slices, each
// sorted ascending, with the slice of sets sorted by smallest member.
func (u *UnionFind) Sets() [][]int {
	groups := make(map[int][]int)
	for id := range u.parent {
		root := u.Find(id)
		groups[root] = append(groups[root], id)
	}
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Pair is an unordered duplicate pair of element IDs with A < B.
type Pair struct {
	A, B int
}

// MakePair normalizes (a, b) into a Pair with A < B.
func MakePair(a, b int) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// Set is one duplicate cluster: the IDs of all element instances that
// represent the same real-world object.
type Set struct {
	ID      int
	Members []int // sorted ascending
}

// ClusterSet is the CS relation of Definition 1 for one candidate: a
// partition of element IDs into clusters, with a lookup from element
// ID to cluster ID.
type ClusterSet struct {
	Clusters []Set
	byMember map[int]int // element ID -> cluster ID
}

// Build materializes a ClusterSet from a union-find: every registered
// element lands in exactly one cluster. Cluster IDs are assigned in
// order of each cluster's smallest member, starting at 1, which makes
// results deterministic across runs.
func Build(u *UnionFind) *ClusterSet {
	sets := u.Sets()
	cs := &ClusterSet{
		Clusters: make([]Set, len(sets)),
		byMember: make(map[int]int, u.Len()),
	}
	for i, members := range sets {
		id := i + 1
		cs.Clusters[i] = Set{ID: id, Members: members}
		for _, m := range members {
			cs.byMember[m] = id
		}
	}
	return cs
}

// FromPairs is a convenience that builds a ClusterSet directly from
// duplicate pairs plus the universe of all element IDs (so unmatched
// elements become singleton clusters).
func FromPairs(universe []int, pairs []Pair) *ClusterSet {
	u := NewUnionFind()
	for _, id := range universe {
		u.Add(id)
	}
	for _, p := range pairs {
		u.Union(p.A, p.B)
	}
	return Build(u)
}

// CID returns the cluster ID of the given element — the paper's cid()
// function — and whether the element is known to this cluster set.
func (cs *ClusterSet) CID(elementID int) (int, bool) {
	id, ok := cs.byMember[elementID]
	return id, ok
}

// Cluster returns the cluster with the given ID, or nil.
func (cs *ClusterSet) Cluster(clusterID int) *Set {
	if clusterID < 1 || clusterID > len(cs.Clusters) {
		return nil
	}
	return &cs.Clusters[clusterID-1]
}

// Len returns the number of clusters.
func (cs *ClusterSet) Len() int { return len(cs.Clusters) }

// Elements returns the total number of elements across all clusters.
func (cs *ClusterSet) Elements() int { return len(cs.byMember) }

// DuplicatePairs enumerates all intra-cluster pairs — the transitive
// closure of the detected duplicate relation. The result is sorted.
func (cs *ClusterSet) DuplicatePairs() []Pair {
	var out []Pair
	for _, c := range cs.Clusters {
		for i := 0; i < len(c.Members); i++ {
			for j := i + 1; j < len(c.Members); j++ {
				out = append(out, Pair{A: c.Members[i], B: c.Members[j]})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// PairCount returns len(cs.DuplicatePairs()) without building the
// pairs: Σ k(k−1)/2 over clusters of k members.
func (cs *ClusterSet) PairCount() int {
	n := 0
	for _, c := range cs.Clusters {
		k := len(c.Members)
		n += k * (k - 1) / 2
	}
	return n
}

// NonSingletons returns the clusters with at least two members — the
// detected duplicate groups.
func (cs *ClusterSet) NonSingletons() []Set {
	var out []Set
	for _, c := range cs.Clusters {
		if len(c.Members) > 1 {
			out = append(out, c)
		}
	}
	return out
}

// String renders the cluster set in the style of Table 2(b).
func (cs *ClusterSet) String() string {
	var b strings.Builder
	for _, c := range cs.Clusters {
		fmt.Fprintf(&b, "%d: %v\n", c.ID, c.Members)
	}
	return b.String()
}
