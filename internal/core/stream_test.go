package core

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/gen/freedb"
	"repro/internal/xmltree"
)

// sortRowsByEID returns the table's rows ordered by element ID; the
// streaming generator appends rows at close time (postorder) while the
// DOM generator appends at visit time (preorder), so tables are
// compared as sets keyed by EID.
func sortRowsByEID(t *GKTable) []GKRow {
	rows := make([]GKRow, len(t.Rows))
	copy(rows, t.Rows)
	sort.Slice(rows, func(i, j int) bool { return rows[i].EID < rows[j].EID })
	return rows
}

func assertTablesEqual(t *testing.T, dom, stream *KeyGenResult, cfg *config.Config) {
	t.Helper()
	for _, cand := range cfg.Candidates {
		dt, st := dom.Tables[cand.Name], stream.Tables[cand.Name]
		if dt == nil || st == nil {
			t.Fatalf("%s: missing table (dom=%v stream=%v)", cand.Name, dt != nil, st != nil)
		}
		dr, sr := sortRowsByEID(dt), sortRowsByEID(st)
		if len(dr) != len(sr) {
			t.Fatalf("%s: row counts differ: dom=%d stream=%d", cand.Name, len(dr), len(sr))
		}
		for i := range dr {
			a, b := dr[i], sr[i]
			if a.EID != b.EID {
				t.Fatalf("%s[%d]: EIDs differ: %d vs %d", cand.Name, i, a.EID, b.EID)
			}
			if strings.Join(a.Keys, "\x00") != strings.Join(b.Keys, "\x00") {
				t.Errorf("%s eid %d: keys differ: %v vs %v", cand.Name, a.EID, a.Keys, b.Keys)
			}
			if len(a.OD) != len(b.OD) {
				t.Fatalf("%s eid %d: OD widths differ", cand.Name, a.EID)
			}
			for f := range a.OD {
				if strings.Join(a.OD[f], "\x00") != strings.Join(b.OD[f], "\x00") {
					t.Errorf("%s eid %d od %d: %v vs %v", cand.Name, a.EID, f, a.OD[f], b.OD[f])
				}
			}
			if len(a.Desc) != len(b.Desc) {
				t.Errorf("%s eid %d: desc type counts differ: %v vs %v", cand.Name, a.EID, a.Desc, b.Desc)
				continue
			}
			for name, eids := range a.Desc {
				got := b.Desc[name]
				if len(eids) != len(got) {
					t.Errorf("%s eid %d desc %s: %v vs %v", cand.Name, a.EID, name, eids, got)
					continue
				}
				for k := range eids {
					if eids[k] != got[k] {
						t.Errorf("%s eid %d desc %s: %v vs %v", cand.Name, a.EID, name, eids, got)
						break
					}
				}
			}
		}
	}
}

// streamMatchesDOM parses doc's serialization both ways, through
// xmltree.Parse plus GenerateKeys and through GenerateKeysStream, and
// requires equal tables.
func streamMatchesDOM(t *testing.T, doc *xmltree.Document, cfg *config.Config) {
	t.Helper()
	xmlText := doc.String()
	parsed, err := xmltree.ParseString(xmlText)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := GenerateKeys(parsed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := GenerateKeysStream(strings.NewReader(xmlText), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, dom, stream, cfg)
}

func TestStreamMatchesDOMMovies(t *testing.T) {
	for _, c := range []struct {
		name   string
		movies int
		cfg    *config.Config
	}{
		{"scalability", 150, dataset.ScalabilityConfig(3)},
		{"dataset1", 60, config.DataSet1(3)}, // about 1k elements
	} {
		t.Run(c.name, func(t *testing.T) {
			doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: c.movies, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if n := doc.Stats().Elements; n < 900 {
				t.Fatalf("corpus has only %d elements", n)
			}
			streamMatchesDOM(t, doc, mustValidate(t, c.cfg))
		})
	}
}

func TestStreamMatchesDOMCDs(t *testing.T) {
	for _, c := range []struct {
		name string
		doc  *xmltree.Document
		cfg  *config.Config
	}{
		{"freedb", freedb.Generate(freedb.DefaultOptions(200, 9)), config.DataSet2(4)},
		{"dataset3", dataset.DataSet3(80, 9), config.DataSet3(4)}, // about 1k elements
	} {
		t.Run(c.name, func(t *testing.T) {
			if n := c.doc.Stats().Elements; n < 900 {
				t.Fatalf("corpus has only %d elements", n)
			}
			streamMatchesDOM(t, c.doc, mustValidate(t, c.cfg))
		})
	}
}

// Comments, CDATA, references and processing instructions split text
// into several tokens, inside and outside candidates; the streaming
// path must number the merged text nodes as the parser does.
func TestStreamMatchesDOMSplitText(t *testing.T) {
	xmlText := `<?xml version="1.0"?><!DOCTYPE movie_database>
<movie_database>stray<!-- c -->more<?pi x?> &amp; tail<movies>
 <![CDATA[ ]]>x<movie year="1999"><title>Silent<!-- c --> River</title><![CDATA[a]]>b</movie>
 <movie><title>Silent &#x52;iver</title><people><person>A<?p?>B</person></people></movie>
</movies>z</movie_database>`
	doc := mustDoc(t, xmlText)
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	dom, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := GenerateKeysStream(strings.NewReader(xmlText), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, dom, stream, cfg)
}

func TestStreamDetectionEndToEnd(t *testing.T) {
	doc := mustDoc(t, typoMoviesXML)
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	kg, err := GenerateKeysStream(strings.NewReader(typoMoviesXML), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Detect(kg, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	domRes, err := Run(doc, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters["movie"].String() != domRes.Clusters["movie"].String() {
		t.Errorf("stream-fed detection differs:\n%s\nvs\n%s",
			res.Clusters["movie"], domRes.Clusters["movie"])
	}
}

func TestStreamRejectsNonPlainPaths(t *testing.T) {
	cfg := &config.Config{Candidates: []config.Candidate{leafCand("p", "//person")}}
	mustValidate(t, cfg)
	if _, err := GenerateKeysStream(strings.NewReader("<r/>"), cfg); err == nil {
		t.Fatal("descendant-axis candidate must be rejected")
	}
}

func TestStreamErrors(t *testing.T) {
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"whitespace", "   "},
		{"unbalanced", "<a><b></a>"},
		{"truncated", "<movie_database><movies>"},
		{"garbage", "no xml <"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := GenerateKeysStream(strings.NewReader(c.in), cfg); err == nil {
				t.Errorf("GenerateKeysStream(%q) succeeded", c.in)
			}
		})
	}
}

func TestStreamMixedContentIDs(t *testing.T) {
	// Significant text outside candidates must consume IDs exactly as
	// the DOM numbering does.
	xmlStr := `<movie_database>stray<movies>more<movie><title>Silent River</title></movie></movies></movie_database>`
	doc := mustDoc(t, xmlStr)
	cfg := mustValidate(t, movieConfig(config.RuleCombined))
	dom, err := GenerateKeys(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := GenerateKeysStream(strings.NewReader(xmlStr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dom.Tables["movie"].Rows[0].EID != stream.Tables["movie"].Rows[0].EID {
		t.Errorf("EIDs diverge with mixed content: dom=%d stream=%d",
			dom.Tables["movie"].Rows[0].EID, stream.Tables["movie"].Rows[0].EID)
	}
}
