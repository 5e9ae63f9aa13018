package sxnm

import (
	"bytes"
	"sort"

	"repro/internal/xmltree"
)

// Deduplicate produces a de-duplicated copy of the document from a
// detection result: within every duplicate cluster a prime
// representative is selected and the other members are removed — the
// "typical approach" the paper describes at the end of Sec. 3.4.
//
// Clusters are processed top-down, by the document depth of their
// shallowest member, so that removing a duplicate ancestor also removes
// its descendants before their own clusters are considered; a cluster
// whose other members went that way keeps its surviving member.
//
// The representative of a cluster is its member with the longest
// surviving descendant text (ties go to the lower node ID), a simple
// data-fusion heuristic that prefers the most complete record.
//
// The source document is only read: the removals are planned against
// it and the output is one survivors-only copy, numbered 1..N in
// document order.
func Deduplicate(doc *Document, res *Result) *Document {
	p := newOutputPlan(doc, false)
	p.resolve(res)
	return doc.Copy(p.copyOptions())
}

// outputPlan decides, on the unmodified source document, which
// cluster members an output leaves out and, for Fuse, what each
// representative gains from the others.
type outputPlan struct {
	nodes []*xmltree.Node           // source nodes by ID
	drop  []bool                    // by ID: the node and its subtree are left out
	fused map[*xmltree.Node]*fusion // nil unless fusing
	text  []byte                    // scratch: surviving descendant text
}

// newOutputPlan indexes the source nodes by ID. Parse and Renumber
// number them 1..N in document order, so the index is a dense slice,
// sized by the last node in document order; a repeated ID resolves to
// its last node in document order.
func newOutputPlan(doc *Document, fuse bool) *outputPlan {
	last := doc.Root
	for len(last.Children) > 0 {
		last = last.Children[len(last.Children)-1]
	}
	p := &outputPlan{nodes: make([]*xmltree.Node, max(last.ID+1, 1))}
	p.index(doc.Root)
	p.drop = make([]bool, len(p.nodes))
	if fuse {
		p.fused = map[*xmltree.Node]*fusion{}
	}
	return p
}

func (p *outputPlan) index(n *xmltree.Node) {
	if n.ID >= len(p.nodes) {
		p.nodes = append(p.nodes, make([]*xmltree.Node, n.ID+1-len(p.nodes))...)
	}
	if n.ID >= 0 {
		p.nodes[n.ID] = n
	}
	for _, c := range n.Children {
		p.index(c)
	}
}

// node returns the source node with the given ID, or nil.
func (p *outputPlan) node(id int) *xmltree.Node {
	if id < 0 || id >= len(p.nodes) {
		return nil
	}
	return p.nodes[id]
}

// dropped reports whether the plan leaves n itself out. Nodes outside
// the source document, such as Fuse's copies, are never dropped.
func (p *outputPlan) dropped(n *xmltree.Node) bool {
	return n.ID >= 0 && n.ID < len(p.drop) && p.drop[n.ID] && p.nodes[n.ID] == n
}

// survives reports whether neither n nor any of its ancestors is
// dropped.
func (p *outputPlan) survives(n *xmltree.Node) bool {
	for e := n; e != nil; e = e.Parent {
		if p.dropped(e) {
			return false
		}
	}
	return true
}

// plannedCluster is a duplicate cluster with its place in the plan.
type plannedCluster struct {
	depth   int // document depth of the shallowest member
	name    string
	seq     int // position in its cluster set
	members []int
}

// clustersTopDown returns the duplicate clusters of res shallowest
// first, then by candidate name and cluster order. Ordering by the
// members' depth rather than by the configured XPath keeps nested
// candidates after their ancestors also for "//" paths.
func (p *outputPlan) clustersTopDown(res *Result) []plannedCluster {
	var out []plannedCluster
	for name, cs := range res.Clusters {
		for i, c := range cs.Clusters {
			if len(c.Members) < 2 {
				continue
			}
			pc := plannedCluster{depth: -1, name: name, seq: i, members: c.Members}
			for _, eid := range c.Members {
				if n := p.node(eid); n != nil {
					if d := n.Depth(); pc.depth < 0 || d < pc.depth {
						pc.depth = d
					}
				}
			}
			if pc.depth >= 0 {
				out = append(out, pc)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return a.seq < b.seq
	})
	return out
}

// resolve runs the plan: in every cluster, top-down, the surviving
// members other than the representative are dropped, each after being
// merged into the representative when fusing. The document root is
// never dropped.
func (p *outputPlan) resolve(res *Result) {
	var alive []*xmltree.Node
	for _, pc := range p.clustersTopDown(res) {
		alive = alive[:0]
		for _, eid := range pc.members {
			if n := p.node(eid); n != nil && p.survives(n) {
				alive = append(alive, n)
			}
		}
		if len(alive) <= 1 {
			continue
		}
		rep := p.representative(alive)
		for _, n := range alive {
			if n == rep {
				continue
			}
			if p.fused != nil {
				p.merge(rep, n)
			}
			if n.Parent != nil {
				p.drop[n.ID] = true
			}
		}
	}
}

// representative prefers the member with the most surviving
// descendant text; ties go to the lower ID.
func (p *outputPlan) representative(members []*xmltree.Node) *xmltree.Node {
	best := members[0]
	bestLen := p.textLen(best)
	for _, n := range members[1:] {
		if l := p.textLen(n); l > bestLen || (l == bestLen && n.ID < best.ID) {
			best, bestLen = n, l
		}
	}
	return best
}

// textLen is len(n.DeepText()) over the tree as planned so far:
// without the dropped nodes, with the fused ones' extra children.
func (p *outputPlan) textLen(n *xmltree.Node) int {
	p.text = p.appendText(p.text[:0], n)
	return len(bytes.TrimSpace(p.text))
}

func (p *outputPlan) appendText(b []byte, n *xmltree.Node) []byte {
	if n.Kind == xmltree.TextNode {
		return append(b, n.Data...)
	}
	for _, c := range n.Children {
		if !p.dropped(c) {
			b = p.appendText(b, c)
		}
	}
	if p.fused != nil {
		if f := p.fused[n]; f != nil {
			for _, c := range f.extra {
				b = p.appendText(b, c)
			}
		}
	}
	return b
}

// copyOptions copy the source as planned: dropped nodes are left out
// and representatives carry their fusion.
func (p *outputPlan) copyOptions() xmltree.CopyOptions {
	opts := xmltree.CopyOptions{Drop: p.dropped}
	if p.fused != nil {
		opts.Extend = func(src, dst *xmltree.Node) []*xmltree.Node {
			f := p.fused[src]
			if f == nil {
				return nil
			}
			dst.Attrs = f.attrs
			return f.extra
		}
	}
	return opts
}

// DuplicateSummary condenses a result into printable per-candidate
// lines, e.g. for CLI output.
type DuplicateSummary struct {
	Candidate    string
	Elements     int
	Clusters     int
	NonSingleton int
	Pairs        int
}

// Summarize extracts per-candidate duplicate summaries, sorted by
// candidate name.
func Summarize(res *Result) []DuplicateSummary {
	out := make([]DuplicateSummary, 0, len(res.Clusters))
	for name, cs := range res.Clusters {
		out = append(out, DuplicateSummary{
			Candidate:    name,
			Elements:     cs.Elements(),
			Clusters:     cs.Len(),
			NonSingleton: len(cs.NonSingletons()),
			Pairs:        cs.PairCount(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Candidate < out[j].Candidate })
	return out
}
