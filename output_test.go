package sxnm

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/xmltree"
)

// cloneOutput is the clone-and-remove output path that Deduplicate and
// Fuse replaced, kept as their differential oracle: deep-copy the
// document, index the copy by ID in a map, remove the duplicates one
// RemoveChild at a time (fusing each into its representative first if
// fuse is set) and renumber. Clusters are taken top-down by the
// document depth of their shallowest member, then candidate name and
// cluster order.
func cloneOutput(doc *Document, res *Result, fuse bool) *Document {
	out := xmltree.NewDocument(deepCopy(doc.Root))
	index := out.IndexByID()

	type ordered struct {
		depth int
		name  string
		seq   int
		set   cluster.Set
	}
	var clusters []ordered
	for name, cs := range res.Clusters {
		for i, c := range cs.NonSingletons() {
			depth := -1
			for _, eid := range c.Members {
				if n := index[eid]; n != nil && (depth < 0 || n.Depth() < depth) {
					depth = n.Depth()
				}
			}
			clusters = append(clusters, ordered{depth, name, i, c})
		}
	}
	sort.Slice(clusters, func(i, j int) bool {
		a, b := clusters[i], clusters[j]
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return a.seq < b.seq
	})

	for _, c := range clusters {
		var alive []*xmltree.Node
		for _, eid := range c.set.Members {
			if n := index[eid]; n != nil && attachedTo(n, out.Root) {
				alive = append(alive, n)
			}
		}
		if len(alive) <= 1 {
			continue
		}
		rep := alive[0]
		for _, n := range alive[1:] {
			if l, bl := len(n.DeepText()), len(rep.DeepText()); l > bl || (l == bl && n.ID < rep.ID) {
				rep = n
			}
		}
		for _, n := range alive {
			if n == rep {
				continue
			}
			if fuse {
				oracleMerge(rep, n)
			}
			if n.Parent != nil {
				n.Parent.RemoveChild(n)
			}
		}
	}
	out.Renumber()
	return out
}

func attachedTo(n, root *xmltree.Node) bool {
	for e := n; e != nil; e = e.Parent {
		if e == root {
			return true
		}
	}
	return false
}

// deepCopy is a node-by-node copy that keeps IDs, independent of the
// xmltree copy routine under test.
func deepCopy(n *xmltree.Node) *xmltree.Node {
	c := &xmltree.Node{Kind: n.Kind, Name: n.Name, Data: n.Data, ID: n.ID}
	c.Attrs = append(c.Attrs, n.Attrs...)
	for _, ch := range n.Children {
		c.AppendChild(deepCopy(ch))
	}
	return c
}

func oracleMerge(rep, donor *xmltree.Node) {
	for _, a := range donor.Attrs {
		if _, ok := rep.Attr(a.Name); !ok {
			rep.SetAttr(a.Name, a.Value)
		}
	}
	names := map[string]bool{}
	for _, c := range rep.Children {
		if c.Kind == xmltree.ElementNode {
			names[c.Name] = true
		}
	}
	for _, c := range donor.Children {
		if c.Kind == xmltree.ElementNode && !names[c.Name] {
			rep.AppendChild(deepCopy(c))
			names[c.Name] = true
		}
	}
}

// nodeIDs lists the IDs of doc in document order.
func nodeIDs(doc *Document) []int {
	var ids []int
	doc.Root.Walk(func(n *xmltree.Node) bool {
		ids = append(ids, n.ID)
		return true
	})
	return ids
}

// checkOutputAgainstOracle runs Deduplicate and Fuse on doc and res and
// compares each with the clone-and-remove oracle: byte-identical
// serialization, IDs as a fresh Renumber assigns them, and a source
// document left exactly as it was.
func checkOutputAgainstOracle(t *testing.T, doc *Document, res *Result) {
	t.Helper()
	before, beforeIDs := doc.String(), nodeIDs(doc)
	for _, tc := range []struct {
		name string
		fn   func(*Document, *Result) *Document
		fuse bool
	}{{"Deduplicate", Deduplicate, false}, {"Fuse", Fuse, true}} {
		got := tc.fn(doc, res)
		want := cloneOutput(doc, res, tc.fuse)
		if g, w := got.String(), want.String(); g != w {
			t.Fatalf("%s differs from the clone-and-remove oracle:\n%s", tc.name, firstDiff(g, w))
		}
		ids := nodeIDs(got)
		got.Renumber()
		if fmt.Sprint(ids) != fmt.Sprint(nodeIDs(got)) {
			t.Errorf("%s output IDs are not those of a fresh Renumber", tc.name)
		}
		if doc.String() != before || fmt.Sprint(nodeIDs(doc)) != fmt.Sprint(beforeIDs) {
			t.Fatalf("%s modified its input document", tc.name)
		}
	}
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(g), len(w))
}

func detect(t testing.TB, doc *Document, cfg *config.Config) *Result {
	t.Helper()
	det, err := NewWithOptions(cfg, Options{UseFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Run(doc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOutputMatchesOracleOnDataSets(t *testing.T) {
	t.Run("DataSet1Movies", func(t *testing.T) {
		doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 300, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res := detect(t, doc, config.DataSet1(3))
		if len(res.Clusters["movie"].NonSingletons()) == 0 {
			t.Fatal("no movie duplicates detected")
		}
		checkOutputAgainstOracle(t, doc, res)
	})
	t.Run("DataSet3Discs", func(t *testing.T) {
		doc := dataset.DataSet3(300, 3)
		res := detect(t, doc, config.DataSet3(10))
		if len(res.Clusters["disc"].NonSingletons()) == 0 {
			t.Fatal("no disc duplicates detected")
		}
		checkOutputAgainstOracle(t, doc, res)
	})
}

// randomClusters partitions, for a few element paths of doc, the
// elements on that path into random clusters: a candidate per path, as
// a configuration declares them, with clusters at every nesting level.
func randomClusters(doc *Document, rng *rand.Rand, paths ...string) *Result {
	res := &Result{Clusters: map[string]*cluster.ClusterSet{}}
	for _, p := range paths {
		var ids []int
		for _, n := range doc.ElementsByPath(p) {
			ids = append(ids, n.ID)
		}
		var pairs []cluster.Pair
		for i := 1; i < len(ids); i++ {
			if rng.Intn(3) == 0 {
				pairs = append(pairs, cluster.MakePair(ids[i], ids[rng.Intn(i)]))
			}
		}
		res.Clusters[p] = cluster.FromPairs(ids, pairs)
	}
	return res
}

func TestOutputMatchesOracleOnRandomClusters(t *testing.T) {
	movies, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	discs := dataset.DataSet3(60, 5)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkOutputAgainstOracle(t, movies, randomClusters(movies, rng,
			dataset.MoviePath, dataset.TitlePath, dataset.PersonPath,
			dataset.PersonPath+"/firstname"))
		checkOutputAgainstOracle(t, discs, randomClusters(discs, rng,
			dataset.DiscPath, "cds/disc/dtitle", "cds/disc/tracks", dataset.TrackTitlePath))
	}
}

// arbitraryClusters clusters random elements of doc at any depth into
// three candidates that may share elements, as overlapping "//"
// candidates can: members of one cluster may nest, and an element may
// represent one cluster and be a donor in another.
func arbitraryClusters(doc *Document, rng *rand.Rand) *Result {
	var els []int
	doc.Root.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.ElementNode {
			els = append(els, n.ID)
		}
		return true
	})
	res := &Result{Clusters: map[string]*cluster.ClusterSet{}}
	for _, name := range []string{"a", "b", "c"} {
		var ids []int
		for _, i := range rng.Perm(len(els))[:len(els)*2/3] {
			ids = append(ids, els[i])
		}
		var pairs []cluster.Pair
		for i := 1; i < len(ids); i++ {
			if rng.Intn(4) == 0 {
				pairs = append(pairs, cluster.MakePair(ids[i], ids[rng.Intn(i)]))
			}
		}
		res.Clusters[name] = cluster.FromPairs(ids, pairs)
	}
	return res
}

func TestOutputMatchesOracleOnArbitraryClusters(t *testing.T) {
	movies, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	discs := dataset.DataSet3(3, 5)
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkOutputAgainstOracle(t, movies, arbitraryClusters(movies, rng))
		checkOutputAgainstOracle(t, discs, arbitraryClusters(discs, rng))
	}
}

// handResult builds a result from explicit clusters of element IDs per
// candidate.
func handResult(clusters map[string][][]int) *Result {
	res := &Result{Clusters: map[string]*cluster.ClusterSet{}}
	for name, sets := range clusters {
		var universe []int
		var pairs []cluster.Pair
		for _, s := range sets {
			universe = append(universe, s...)
			for _, id := range s[1:] {
				pairs = append(pairs, cluster.MakePair(s[0], id))
			}
		}
		res.Clusters[name] = cluster.FromPairs(universe, pairs)
	}
	return res
}

// pathIDs returns the IDs of the elements of doc on the given path.
func pathIDs(t *testing.T, doc *Document, path string) []int {
	t.Helper()
	var out []int
	for _, n := range doc.ElementsByPath(path) {
		out = append(out, n.ID)
	}
	if len(out) == 0 {
		t.Fatalf("no elements on %s", path)
	}
	return out
}

func TestOutputMatchesOracleOnEdgeCases(t *testing.T) {
	const xmlStr = `<lib kind="books">
  <shelf n="1"><book lang="en"><t>Alpha</t><a>Ann</a></book><book isbn="9"><t>Alpha</t><a>Ann</a></book></shelf>
  <shelf n="2"><book lang="de" isbn="7"><t>Alpha</t><a>Ann</a><note>x</note></book><book><t>Beta &amp; Co</t><p>"q"</p></book></shelf>
  <shelf><book><t>Alpha</t><a>Bob</a></book></shelf>
</lib>`
	doc, err := ParseXMLString(xmlStr)
	if err != nil {
		t.Fatal(err)
	}
	shelves := pathIDs(t, doc, "lib/shelf")
	books := pathIDs(t, doc, "lib/shelf/book")
	titles := pathIDs(t, doc, "lib/shelf/book/t")
	cases := map[string]map[string][][]int{
		// The root is a candidate instance of its own; it can only be a
		// singleton, next to clusters below it.
		"root candidate": {"lib": {{1}}, "book": {{books[0], books[1]}}},
		// Root and a descendant in one cluster: the root is never
		// removed.
		"root in a cluster": {"any": {{1, books[4]}}},
		// Books 0 and 1 have equal text: the lower ID wins.
		"tie-break": {"book": {{books[0], books[1]}}},
		// Shelf 2 goes with shelf 1, taking its books with it; their
		// book and title clusters shrink or vanish.
		"members removed with a duplicate ancestor": {
			"shelf": {{shelves[0], shelves[1]}},
			"book":  {{books[0], books[2], books[4]}, {books[1], books[3]}},
			"t":     {{titles[0], titles[2], titles[4]}},
		},
		// Attributes and children the representative lacks are fused.
		"attributes": {"book": {{books[0], books[1], books[2]}, {books[3], books[4]}}},
		// Same-depth candidates of different names.
		"sibling candidates": {
			"book": {{books[0], books[2]}},
			"b2":   {{books[1], books[3]}},
		},
	}
	for name, clusters := range cases {
		t.Run(name, func(t *testing.T) {
			checkOutputAgainstOracle(t, doc, handResult(clusters))
		})
	}
	// Clusters whose members sit at different depths, as "//"
	// candidates allow: cluster x drops b (IDs 2 and 5), so c (ID 4)
	// has no surviving text and d (ID 7) represents cluster y.
	t.Run("mixed-depth clusters", func(t *testing.T) {
		mixed, err := ParseXMLString(`<r><a>a much longer text</a><c><b>twelve chars</b></c><d>five!</d></r>`)
		if err != nil {
			t.Fatal(err)
		}
		res := handResult(map[string][][]int{"x": {{2, 5}}, "y": {{4, 7}}})
		checkOutputAgainstOracle(t, mixed, res)
		if out := Deduplicate(mixed, res); out.Root.FirstChildElement("d") == nil {
			t.Errorf("d should represent its cluster:\n%s", out)
		}
	})
}

const nestedDiscConfig = `
<sxnm-config>
  <candidate name="disc" xpath="/catalog/discs/disc" window="5" threshold="0.8">
    <path id="1" relPath="dtitle/text()"/>
    <od pid="1" relevance="1"/>
    <key name="title"><part pid="1" order="1" pattern="K1-K5"/></key>
  </candidate>
  <candidate name="track" xpath="//track" window="5" threshold="0.8">
    <path id="1" relPath="text()"/>
    <od pid="1" relevance="1"/>
    <key name="name"><part pid="1" order="1" pattern="C1-C6"/></key>
  </candidate>
</sxnm-config>`

const nestedDiscXML = `
<catalog>
  <discs>
    <disc><dtitle>Blue Train</dtitle><notes>short</notes><track>Moment's Notice</track></disc>
    <disc><dtitle>Blue Train</dtitle><notes>a much longer liner note</notes><track>Moment's Notice</track></disc>
  </discs>
</catalog>`

// A "//" candidate nested in a "/"-rooted one must be processed after
// it: counting slashes in the XPath put the tracks first, kept the
// first disc's track and then removed that disc, leaving no track.
func TestOutputKeepsNestedDoubleSlashCandidate(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(nestedDiscConfig))
	if err != nil {
		t.Fatal(err)
	}
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseXMLString(nestedDiscXML)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Run(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"disc", "track"} {
		if len(res.Clusters[c].NonSingletons()) != 1 {
			t.Fatalf("%s duplicates not detected:\n%s", c, res.Clusters[c])
		}
	}
	for name, fn := range map[string]func(*Document, *Result) *Document{"Deduplicate": Deduplicate, "Fuse": Fuse} {
		out := fn(doc, res)
		discs := out.ElementsByPath("catalog/discs/disc")
		if len(discs) != 1 {
			t.Fatalf("%s: %d discs, want 1", name, len(discs))
		}
		if discs[0].FirstChildElement("track") == nil {
			t.Errorf("%s lost the track:\n%s", name, out)
		}
		if n := discs[0].FirstChildElement("notes"); n == nil || n.Text() != "a much longer liner note" {
			t.Errorf("%s kept the wrong disc:\n%s", name, out)
		}
	}
	checkOutputAgainstOracle(t, doc, res)
}

// outputBench memoizes BenchmarkOutput's document and result.
var outputBench struct {
	doc *Document
	res *Result
}

// BenchmarkOutput times the CLI's -output path on 6k dirty Data set 1
// movies: Deduplicate, then serialization.
func BenchmarkOutput(b *testing.B) {
	if outputBench.doc == nil {
		doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 6000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		outputBench.doc, outputBench.res = doc, detect(b, doc, config.DataSet1(3))
	}
	doc, res := outputBench.doc, outputBench.res
	opts := xmltree.WriteOptions{Indent: "  ", Header: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Deduplicate(doc, res).Write(io.Discard, opts); err != nil {
			b.Fatal(err)
		}
	}
}
