package core

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/gen/freedb"
	"repro/internal/xmltree"
)

// generateKeysByAbsolutePath is key generation as it was before the
// candidate trie, kept as the differential oracle: every element builds
// its AbsolutePath and looks it up among the plain candidate paths,
// each read as the xpath evaluator reads it (a leading slash dropped,
// steps trimmed). Other paths are resolved to element sets up front
// and take precedence; among equal plain paths the first candidate
// wins.
func generateKeysByAbsolutePath(t *testing.T, doc *xmltree.Document, cfg *config.Config) *KeyGenResult {
	t.Helper()
	tables := make(map[string]*GKTable, len(cfg.Candidates))
	byAbsPath := make(map[string]*config.Candidate)
	special := make(map[*xmltree.Node]*config.Candidate)
	for i := range cfg.Candidates {
		c := &cfg.Candidates[i]
		tables[c.Name] = &GKTable{Candidate: c, byEID: make(map[int]int)}
		if !isPlainPath(c.XPath) {
			for _, n := range c.AbsPath().SelectDocument(doc) {
				special[n] = c
			}
			continue
		}
		var names []string
		for _, st := range c.AbsPath().Steps {
			names = append(names, st.Name)
		}
		if p := strings.Join(names, "/"); byAbsPath[p] == nil {
			byAbsPath[p] = c
		}
	}
	type open struct {
		cand *config.Candidate
		row  int
	}
	var stack []open
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if n.Kind != xmltree.ElementNode {
			return
		}
		c := special[n]
		if c == nil {
			c = byAbsPath[n.AbsolutePath()]
		}
		if c != nil {
			tbl := tables[c.Name]
			row, err := buildRow(n, c)
			if err != nil {
				t.Fatal(err)
			}
			tbl.byEID[row.EID] = len(tbl.Rows)
			tbl.Rows = append(tbl.Rows, row)
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				pr := &tables[parent.cand.Name].Rows[parent.row]
				if pr.Desc == nil {
					pr.Desc = make(map[string][]int)
				}
				pr.Desc[c.Name] = append(pr.Desc[c.Name], row.EID)
			}
			stack = append(stack, open{c, len(tbl.Rows) - 1})
		}
		for _, ch := range n.Children {
			walk(ch)
		}
		if c != nil {
			stack = stack[:len(stack)-1]
		}
	}
	walk(doc.Root)
	return &KeyGenResult{Tables: tables}
}

// withXPaths returns a copy of cfg whose candidates use the given
// xpaths, by candidate name.
func withXPaths(cfg *config.Config, xpaths map[string]string) *config.Config {
	out := *cfg
	out.Candidates = append([]config.Candidate(nil), cfg.Candidates...)
	for i := range out.Candidates {
		if xp, ok := xpaths[out.Candidates[i].Name]; ok {
			out.Candidates[i].XPath = xp
		}
	}
	return &out
}

// Trie matching yields the same tables, Desc registrations included,
// as the AbsolutePath matcher it replaced.
func TestCandidateTrieMatchesAbsolutePath(t *testing.T) {
	movies, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cds := freedb.Generate(freedb.DefaultOptions(60, 4))
	moviesCfg := dataset.ScalabilityConfig(3)
	for _, c := range []struct {
		name string
		doc  *xmltree.Document
		cfg  *config.Config
	}{
		{"nested plain", movies, moviesCfg},
		{"mixed plain and descendant", movies, withXPaths(moviesCfg, map[string]string{
			"person": "//person",
		})},
		{"mixed plain and predicate", movies, withXPaths(moviesCfg, map[string]string{
			"title": "movie_database/movies/movie/title[1]",
		})},
		{"root matches no candidate", movies, withXPaths(moviesCfg, map[string]string{
			"movie": "film_database/movies/movie",
			"title": "movie/title",
		})},
		{"leading slash", movies, withXPaths(moviesCfg, map[string]string{
			"movie":  "/movie_database/movies/movie",
			"person": "/ movie_database/movies/movie/people/ person",
		})},
		{"nested cds", cds, config.DataSet3(4)},
		{"cds with wildcard", cds, withXPaths(config.DataSet3(4), map[string]string{
			"disc": "cds/*",
		})},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := mustValidate(t, c.cfg)
			got, err := GenerateKeys(c.doc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := generateKeysByAbsolutePath(t, c.doc, cfg)
			assertTablesEqual(t, want, got, cfg)
			for _, cand := range cfg.Candidates {
				// Trie rows come in document order, like the oracle's.
				w, g := want.Tables[cand.Name].Rows, got.Tables[cand.Name].Rows
				for i := range w {
					if w[i].EID != g[i].EID {
						t.Fatalf("%s row %d: EID %d, want %d", cand.Name, i, g[i].EID, w[i].EID)
					}
				}
				if isPlainPath(cand.XPath) && len(w) != len(cand.AbsPath().SelectDocument(c.doc)) {
					t.Errorf("%s: %d rows, but the xpath selects %d elements",
						cand.Name, len(w), len(cand.AbsPath().SelectDocument(c.doc)))
				}
			}
		})
	}
}
