package sxnm

import "repro/internal/xmltree"

// Fuse produces a de-duplicated copy of the document like Deduplicate,
// but instead of discarding the non-representative cluster members it
// merges their data into the surviving element — the "more
// sophisticated approaches perform data fusion by resolving conflicts
// among the different representations" of the paper's Sec. 3.4.
//
// The fusion policy is conservative and deterministic:
//
//   - attributes: the representative keeps its own values; attributes
//     it lacks are copied from the other members (first member in
//     document order wins);
//   - child elements: for every child element name the representative
//     keeps its own children; names it lacks entirely are copied from
//     the first member that has them (subtrees are cloned);
//   - text: the representative's text is kept (it was chosen as the
//     most complete record).
//
// Clusters are processed top-down and the representative is chosen as
// in Deduplicate. Fusion is planned on the source document, which is
// only read: the names a representative already has are its element
// children at the point of the plan where a donor is merged into it,
// and a donor child is copied from the source without the nodes the
// plan had dropped by then.
func Fuse(doc *Document, res *Result) *Document {
	p := newOutputPlan(doc, true)
	p.resolve(res)
	return doc.Copy(p.copyOptions())
}

// fusion is what Fuse adds to a representative's copy.
type fusion struct {
	attrs []xmltree.Attr  // the representative's, then those it lacked
	extra []*xmltree.Node // copies of donor children, after its own
}

// merge folds donor into rep's fusion without overwriting anything rep
// already has. Donor children are copied as planned so far, so later
// drops inside the donor do not reach the copies.
func (p *outputPlan) merge(rep, donor *xmltree.Node) {
	f := p.fused[rep]
	if f == nil {
		f = &fusion{attrs: append([]xmltree.Attr(nil), rep.Attrs...)}
		p.fused[rep] = f
	}
	// A donor that represented an earlier cluster gives what it gained.
	attrs, gained := donor.Attrs, []*xmltree.Node(nil)
	if d := p.fused[donor]; d != nil {
		attrs, gained = d.attrs, d.extra
	}
	for _, a := range attrs {
		if !hasAttr(f.attrs, a.Name) {
			f.attrs = append(f.attrs, a)
		}
	}
	for _, c := range donor.Children {
		if c.Kind == xmltree.ElementNode && !p.dropped(c) && !f.hasChild(p, rep, c.Name) {
			sub := &xmltree.Document{Root: c}
			f.extra = append(f.extra, sub.Copy(p.copyOptions()).Root)
		}
	}
	for _, c := range gained {
		if !f.hasChild(p, rep, c.Name) {
			f.extra = append(f.extra, c)
		}
	}
}

// hasChild reports whether rep's planned copy has an element child
// with the given name: a kept child of its own or an earlier extra.
func (f *fusion) hasChild(p *outputPlan, rep *xmltree.Node, name string) bool {
	for _, c := range rep.Children {
		if c.Kind == xmltree.ElementNode && c.Name == name && !p.dropped(c) {
			return true
		}
	}
	for _, c := range f.extra {
		if c.Name == name {
			return true
		}
	}
	return false
}

func hasAttr(attrs []xmltree.Attr, name string) bool {
	for _, a := range attrs {
		if a.Name == name {
			return true
		}
	}
	return false
}
