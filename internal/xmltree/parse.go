package xmltree

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/runlimit"
)

// Parse reads an XML document from r into a Document. Namespaces are
// flattened to local names; comments, processing instructions, and
// directives are dropped; pure-whitespace text between elements is
// discarded. Non-whitespace content after the root element closes is
// rejected. Node IDs are assigned in document order starting at 1.
func Parse(r io.Reader) (*Document, error) {
	return ParseWithLimits(r, runlimit.Limits{})
}

// ParseWithLimits is Parse with resource ceilings enforced during the
// token scan: lim.MaxDepth caps element nesting (root = depth 1) and
// lim.MaxNodes caps the document-order node count (elements plus
// significant text nodes). A breach aborts the parse with a
// *runlimit.LimitError, so hostile or runaway documents fail fast
// instead of exhausting memory. Zero limits parse unbounded.
func ParseWithLimits(r io.Reader, lim runlimit.Limits) (*Document, error) {
	return build(NewTokenizer(r, lim))
}

// build assembles the tree from the tokenizer's events. Nodes, child
// lists and attribute lists are carved from chunked arenas, so a parse
// makes a few large allocations instead of several per node. Each list
// is capped at its length: appending to one reallocates it instead of
// writing into its neighbour.
func build(tz *Tokenizer) (*Document, error) {
	var a arena
	var root, cur *Node
	// kids holds the children of the open elements, innermost last;
	// first[i] is where the i-th open element's children start.
	var kids []*Node
	var first []int
	for {
		kind, err := tz.Next()
		if err == io.EOF {
			return &Document{Root: root}, nil
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch kind {
		case StartToken:
			e := a.node()
			e.Kind, e.Name, e.Parent, e.ID = ElementNode, tz.Name(), cur, tz.ID()
			if n := len(tz.attrs); n > 0 {
				e.Attrs = tz.AppendAttrs(a.attrList(n))
				if len(e.Attrs) == 0 {
					e.Attrs = nil
				}
			}
			if cur == nil {
				root = e
			} else {
				kids = append(kids, e)
			}
			first = append(first, len(kids))
			cur = e
		case EndToken:
			k := first[len(first)-1]
			first = first[:len(first)-1]
			cur.Children = a.children(kids[k:])
			kids = kids[:k]
			cur = cur.Parent
		case TextToken:
			if tz.Merged() {
				last := kids[len(kids)-1]
				last.Data += string(tz.Text())
				continue
			}
			n := a.node()
			n.Kind, n.Data, n.Parent, n.ID = TextNode, string(tz.Text()), cur, tz.ID()
			kids = append(kids, n)
		}
	}
}

// arena hands out nodes and capped slices from chunked allocations.
// Chunk sizes double from arenaFirst up to their ceiling, so a copy of
// a small subtree stays small while a whole document still costs
// O(N/arenaChunk) allocations.
type arena struct {
	nodes []Node
	ptrs  []*Node
	attrs []Attr
	// last chunk sizes, for doubling
	nodeChunk, ptrChunk, attrChunk int
}

const (
	arenaChunk = 512
	arenaFirst = 16
)

// nextChunk doubles *last up to ceiling and returns the new size.
func nextChunk(last *int, ceiling int) int {
	*last = min(max(2**last, arenaFirst), ceiling)
	return *last
}

func (a *arena) node() *Node {
	if len(a.nodes) == 0 {
		a.nodes = make([]Node, nextChunk(&a.nodeChunk, arenaChunk))
	}
	n := &a.nodes[0]
	a.nodes = a.nodes[1:]
	return n
}

// children returns a copy of src, or nil if it is empty.
func (a *arena) children(src []*Node) []*Node {
	n := len(src)
	if n == 0 {
		return nil
	}
	if n > len(a.ptrs) {
		if n > arenaChunk {
			return append([]*Node(nil), src...)
		}
		a.ptrs = make([]*Node, max(nextChunk(&a.ptrChunk, 4*arenaChunk), n))
	}
	out := a.ptrs[:n:n]
	a.ptrs = a.ptrs[n:]
	copy(out, src)
	return out
}

// attrList returns an empty attribute list with capacity n.
func (a *arena) attrList(n int) []Attr {
	if n > len(a.attrs) {
		if n > arenaChunk {
			return make([]Attr, 0, n)
		}
		a.attrs = make([]Attr, max(nextChunk(&a.attrChunk, arenaChunk), n))
	}
	out := a.attrs[:0:n]
	a.attrs = a.attrs[n:]
	return out
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// ParseFile parses the XML document stored at path.
func ParseFile(path string) (*Document, error) {
	return ParseFileWithLimits(path, runlimit.Limits{})
}

// ParseFileWithLimits parses the XML document stored at path with the
// resource ceilings of ParseWithLimits.
func ParseFileWithLimits(path string, lim runlimit.Limits) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("xmltree: %w", err)
	}
	defer f.Close()
	return ParseWithLimits(f, lim)
}
