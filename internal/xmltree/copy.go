package xmltree

// CopyOptions steer Document.Copy.
type CopyOptions struct {
	// Drop, if set, reports the source nodes to leave out of the copy
	// together with their subtrees. It is never asked about the root.
	Drop func(*Node) bool
	// Extend, if set, is called with every copied element and its
	// source before the source's children are copied. It may replace the
	// copy's attribute list. The subtrees it returns are copied after the
	// source's own children and appended to the copy's; Drop applies
	// inside them, Extend does not.
	Extend func(src, dst *Node) []*Node
}

// Copy returns a copy of the document shaped by opts, in one preorder
// walk. The copy's nodes are numbered 1..N in document order, exactly
// as Renumber would number them. The source document is only read.
func (d *Document) Copy(opts CopyOptions) *Document {
	c := copier{CopyOptions: opts, renumber: true}
	return &Document{Root: c.copy(d.Root, nil, true)}
}

// copier is the package's one tree-copy routine, behind Node.Clone and
// Document.Copy. Like the parser it carves nodes, child lists and
// attribute lists from an arena, so a copy makes O(N/arenaChunk)
// allocations rather than several per node.
type copier struct {
	CopyOptions
	a arena
	// kids holds the copied children of the nodes being copied,
	// innermost last.
	kids []*Node
	// renumber assigns fresh document-order IDs; otherwise IDs are kept.
	renumber bool
	lastID   int
}

// copy copies src and its subtree under parent; extend says whether
// Extend is called in it.
func (c *copier) copy(src, parent *Node, extend bool) *Node {
	dst := c.a.node()
	dst.Kind, dst.Name, dst.Data, dst.Parent, dst.ID = src.Kind, src.Name, src.Data, parent, src.ID
	if c.renumber {
		c.lastID++
		dst.ID = c.lastID
	}
	if len(src.Attrs) > 0 {
		dst.Attrs = append(c.a.attrList(len(src.Attrs)), src.Attrs...)
	}
	var extra []*Node
	if extend && c.Extend != nil && src.Kind == ElementNode {
		extra = c.Extend(src, dst)
	}
	k := len(c.kids)
	c.copyAll(src.Children, dst, extend)
	c.copyAll(extra, dst, false)
	dst.Children = c.a.children(c.kids[k:])
	c.kids = c.kids[:k]
	return dst
}

// copyAll pushes copies of the nodes Drop keeps onto kids.
func (c *copier) copyAll(nodes []*Node, parent *Node, extend bool) {
	for _, n := range nodes {
		if c.Drop == nil || !c.Drop(n) {
			c.kids = append(c.kids, c.copy(n, parent, extend))
		}
	}
}
