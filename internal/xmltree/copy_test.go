package xmltree

import (
	"fmt"
	"strings"
	"testing"
)

// wideDoc builds a document of about n nodes: a root with n/4
// children, each an element with an attribute, a text child and an
// empty element child.
func wideDoc(n int) *Document {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n/4; i++ {
		fmt.Fprintf(&b, `<c k="%d">t%d<e/></c>`, i, i)
	}
	b.WriteString("</r>")
	d, err := ParseString(b.String())
	if err != nil {
		panic(err)
	}
	return d
}

func TestCopyDropsAndRenumbers(t *testing.T) {
	d := mustParse(t, `<a x="1"><b>one</b><c><d>two</d></c><b>three</b></a>`)
	c := d.Root.ChildElements("c")[0]
	out := d.Copy(CopyOptions{Drop: func(n *Node) bool { return n == c }})
	if got, want := out.String(), "<a x=\"1\">\n  <b>one</b>\n  <b>three</b>\n</a>\n"; got != want {
		t.Fatalf("copy = %q, want %q", got, want)
	}
	ids := []int{}
	out.Root.Walk(func(n *Node) bool { ids = append(ids, n.ID); return true })
	if fmt.Sprint(ids) != "[1 2 3 4 5]" {
		t.Errorf("copy IDs = %v, want 1..5 in document order", ids)
	}
	if got := len(d.Root.Children); got != 3 || c.Parent != d.Root || c.ID != 4 {
		t.Error("Copy modified its source")
	}
}

func TestCopyExtendAppendsSubtrees(t *testing.T) {
	d := mustParse(t, `<a><b><x>1</x></b><c><y>2</y><z/><w/></c></a>`)
	b := d.Root.ChildElements("b")[0]
	c := d.Root.ChildElements("c")[0]
	calls := 0
	out := d.Copy(CopyOptions{
		// Drop applies inside the extras too.
		Drop: func(n *Node) bool { return n == c || n.Name == "z" },
		Extend: func(src, dst *Node) []*Node {
			calls++
			if src != b {
				return nil
			}
			dst.Attrs = []Attr{{Name: "fused", Value: "yes"}}
			return c.Children
		},
	})
	want := "<a>\n  <b fused=\"yes\">\n    <x>1</x>\n    <y>2</y>\n    <w/>\n  </b>\n</a>\n"
	if got := out.String(); got != want {
		t.Fatalf("copy = %q, want %q", got, want)
	}
	// a, b and x: not the extras, nor the dropped c.
	if calls != 3 {
		t.Errorf("Extend called %d times, want 3", calls)
	}
	n := 0
	out.Root.Walk(func(e *Node) bool {
		n++
		if e.ID != n {
			t.Errorf("node %s has ID %d, want %d", e.Name, e.ID, n)
		}
		if e != out.Root && e.Parent == nil {
			t.Errorf("node %s has no parent", e.Name)
		}
		return true
	})
	if _, ok := b.Attr("fused"); ok {
		t.Error("Extend's attribute leaked into the source")
	}
}

func TestCloneKeepsIDs(t *testing.T) {
	d := mustParse(t, sampleXML)
	movie := d.ElementsByPath("movie_database/movies/movie")[0]
	c := movie.Clone()
	var orig, got []int
	movie.Walk(func(n *Node) bool { orig = append(orig, n.ID); return true })
	c.Walk(func(n *Node) bool { got = append(got, n.ID); return true })
	if fmt.Sprint(orig) != fmt.Sprint(got) {
		t.Errorf("clone IDs %v, want %v", got, orig)
	}
}

// A whole-document copy carves its nodes and lists from the arena: its
// allocations grow with N/arenaChunk, not with N.
func TestCopyAllocations(t *testing.T) {
	const n = 40000
	d := wideDoc(n)
	limit := float64(3*n/arenaChunk + 40)
	if a := testing.AllocsPerRun(5, func() { d.Root.Clone() }); a > limit {
		t.Errorf("Clone of %d nodes: %.0f allocations, want <= %.0f", n, a, limit)
	}
	drop := func(x *Node) bool { return x.Name == "e" }
	if a := testing.AllocsPerRun(5, func() { d.Copy(CopyOptions{Drop: drop}) }); a > limit {
		t.Errorf("Copy of %d nodes: %.0f allocations, want <= %.0f", n, a, limit)
	}
	// A small subtree makes a few small allocations: one chunk per
	// arena list plus the child stack.
	small := d.Root.Children[0]
	if a := testing.AllocsPerRun(5, func() { small.Clone() }); a > 6 {
		t.Errorf("Clone of a 4-node subtree: %.0f allocations, want <= 6", a)
	}
}
