// Package core implements the SXNM algorithm of Sec. 3: single-pass
// key generation into GK relations, bottom-up multi-pass sliding-window
// duplicate detection, and transitive closure into cluster sets.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/runlimit"
	"repro/internal/similarity"
	"repro/internal/xmltree"
)

// GKRow is one row of a GK_s relation (Sec. 3.3): the element ID, the
// generated keys (one per key definition), the extracted object
// description values (aligned with the candidate's OD entries), and —
// for the bottom-up phase — the element IDs of descendant candidate
// instances grouped by descendant candidate name.
type GKRow struct {
	EID  int
	Keys []string
	OD   [][]string
	Desc map[string][]int

	// descClusters caches, per descendant candidate name, the sorted
	// cluster IDs corresponding to Desc once the descendant's cluster
	// set is known; filled in by the engine before the candidate's own
	// passes. Sorted by name, so descendant similarity is a merge walk.
	descClusters []descList

	// odSketch holds, per OD field with the edit measure, one
	// ValueSketch per value (nil entries for other fields); prepared by
	// GKTable.sketchRow for the threshold-aware fast path. sketched
	// distinguishes a prepared row with no edit fields from an
	// unprepared one. Derived data: never serialized, recomputed when a
	// spilled row is decoded.
	odSketch [][]similarity.ValueSketch
	sketched bool
}

// descList is one descendant type's l_e list (Def. 3): the descendant
// candidate name and the row's descendant cluster IDs in ascending
// order.
type descList struct {
	name string
	cids []int
}

// GKTable is the GK_s relation for one candidate plus the resolved OD
// similarity fields.
type GKTable struct {
	Candidate *config.Candidate
	Rows      []GKRow

	fields []similarity.ODField
	bounds []bool      // per OD field: does the length upper bound apply?
	byEID  map[int]int // EID -> row index
}

// Row returns the row for the given element ID, or nil.
func (t *GKTable) Row(eid int) *GKRow {
	i, ok := t.byEID[eid]
	if !ok {
		return nil
	}
	return &t.Rows[i]
}

// KeyGenResult is the outcome of the key generation phase: one GK
// table per candidate (keyed by candidate name) and the phase duration.
type KeyGenResult struct {
	Tables   map[string]*GKTable
	Duration time.Duration
}

// GenerateKeys performs the key generation phase (Sec. 3.3): a single
// walk over the document that, for every candidate instance, generates
// all defined keys, extracts the object description values, and records
// which candidate instances are nested under which (via the nearest
// candidate ancestor, mirroring the extracted candidate trees of
// Fig. 3(b)).
//
// The configuration must be validated.
func GenerateKeys(doc *xmltree.Document, cfg *config.Config) (*KeyGenResult, error) {
	return GenerateKeysContext(context.Background(), doc, cfg, Limits{})
}

// GenerateKeysContext is GenerateKeys under a context and limits: the
// document walk checks for cancellation periodically, lim.MaxRows caps
// the rows recorded per candidate, and lim.MaxDepth/MaxNodes are
// verified up front (mirroring the parse-time checks for documents
// built in memory). On interruption the partial KeyGenResult built so
// far is returned together with the typed cause.
func GenerateKeysContext(ctx context.Context, doc *xmltree.Document, cfg *config.Config, lim Limits) (*KeyGenResult, error) {
	return GenerateKeysObserved(ctx, doc, cfg, lim, nil)
}

// GenerateKeysObserved is GenerateKeysContext with the key generation
// phase traced: one SpanKeyGen span carrying the candidate count and
// total rows extracted, plus the GKRows metric. A nil or disabled
// observer reduces to GenerateKeysContext exactly.
func GenerateKeysObserved(ctx context.Context, doc *xmltree.Document, cfg *config.Config, lim Limits, ob *obs.Observer) (kgOut *KeyGenResult, errOut error) {
	start := time.Now()
	if !ob.Enabled() {
		ob = nil
	}
	if ob != nil {
		sp := ob.StartSpan(obs.SpanKeyGen, obs.Int("candidates", len(cfg.Candidates)))
		defer func() { finishKeyGenSpan(sp, ob, kgOut, errOut) }()
	}
	ctx, stop := runlimit.WithTimeout(ctx, lim)
	defer stop()
	bud := newBudget(ctx, lim)
	if err := checkDocLimits(doc, lim); err != nil {
		return &KeyGenResult{Tables: map[string]*GKTable{}, Duration: time.Since(start)}, err
	}

	tables := make(map[string]*GKTable, len(cfg.Candidates))
	for i := range cfg.Candidates {
		c := &cfg.Candidates[i]
		fields, err := c.ODFields()
		if err != nil {
			return nil, fmt.Errorf("core: candidate %q: %w", c.Name, err)
		}
		simNames := make([]string, len(c.OD))
		for j, od := range c.OD {
			simNames[j] = od.SimFunc
		}
		tables[c.Name] = &GKTable{
			Candidate: c,
			fields:    fields,
			bounds:    similarity.FieldBounds(simNames),
			byEID:     make(map[int]int),
		}
	}

	// Match elements to candidates. Plain candidate paths are matched
	// by a name trie that advances as the walk descends; paths that use
	// the descendant axis, wildcards or predicates are resolved up front
	// into an element-pointer set, which takes precedence.
	trie := newCandTrie(cfg)
	special := make(map[*xmltree.Node]*config.Candidate)
	for i := range cfg.Candidates {
		c := &cfg.Candidates[i]
		if isPlainPath(c.XPath) {
			continue
		}
		for _, n := range c.AbsPath().SelectDocument(doc) {
			special[n] = c
		}
	}

	// Depth-first walk with an explicit stack of open candidate
	// instances so each candidate element registers with its nearest
	// candidate ancestor.
	type open struct {
		cand *config.Candidate
		row  int // index into tables[cand.Name].Rows
	}
	var stack []open
	visited := 0
	// walk visits n, whose parent's trie state is at.
	var walk func(n *xmltree.Node, at *candTrie) error
	walk = func(n *xmltree.Node, at *candTrie) error {
		if n.Kind != xmltree.ElementNode {
			return nil
		}
		visited++
		if err := bud.poll(visited); err != nil {
			return err
		}
		at = at.child(n.Name)
		c := special[n]
		if c == nil {
			c = at.candidate()
		}
		pushed := false
		if c != nil {
			t := tables[c.Name]
			if err := lim.CheckRows(len(t.Rows) + 1); err != nil {
				return err
			}
			row, err := buildRow(n, c)
			if err != nil {
				return err
			}
			t.byEID[row.EID] = len(t.Rows)
			t.Rows = append(t.Rows, row)
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				pt := tables[parent.cand.Name]
				pr := &pt.Rows[parent.row]
				if pr.Desc == nil {
					pr.Desc = make(map[string][]int, 2)
				}
				pr.Desc[c.Name] = append(pr.Desc[c.Name], row.EID)
			}
			stack = append(stack, open{cand: c, row: len(t.Rows) - 1})
			pushed = true
		}
		for _, ch := range n.Children {
			if err := walk(ch, at); err != nil {
				return err
			}
		}
		if pushed {
			stack = stack[:len(stack)-1]
		}
		return nil
	}
	if err := walk(doc.Root, trie); err != nil {
		if isInterruption(err) {
			// Keep the rows extracted so far: the caller may still
			// inspect or persist the partial tables.
			return &KeyGenResult{Tables: tables, Duration: time.Since(start)}, err
		}
		return nil, err
	}

	return &KeyGenResult{Tables: tables, Duration: time.Since(start)}, nil
}

// finishKeyGenSpan closes a key generation span with the rows
// extracted (even on an interruption, where partial tables remain
// inspectable) and seeds the GKRows gauge and a heap sample.
func finishKeyGenSpan(sp *obs.Span, ob *obs.Observer, kg *KeyGenResult, err error) {
	rows := 0
	if kg != nil {
		for _, t := range kg.Tables {
			rows += len(t.Rows)
		}
	}
	sp.SetAttr(obs.Int(obs.AttrRows, rows))
	if err != nil {
		sp.SetAttr(obs.Bool(obs.AttrInterrupted, true), obs.String(obs.AttrCause, err.Error()))
	}
	sp.End()
	if m := ob.Metrics(); m != nil {
		m.GKRows.Store(int64(rows))
		m.SampleHeap()
	}
}

// buildRow extracts keys and OD values for one candidate instance.
func buildRow(n *xmltree.Node, c *config.Candidate) (GKRow, error) {
	row := GKRow{EID: n.ID}

	// Raw value per referenced path, extracted once and shared between
	// key generation and the OD (the paper's "save an extra pass").
	values := make(map[int][]string, len(c.Paths))
	for _, pd := range c.Paths {
		values[pd.ID] = pd.Path().SelectValues(n)
	}
	first := func(pid int) string {
		v := values[pid]
		if len(v) == 0 {
			return ""
		}
		return v[0]
	}

	keys := c.CompiledKeys()
	row.Keys = make([]string, len(keys))
	for i, k := range keys {
		row.Keys[i] = k.Generate(first)
	}

	row.OD = make([][]string, len(c.OD))
	for i, od := range c.OD {
		row.OD[i] = values[od.PathID]
	}
	return row, nil
}

// candTrie matches plain candidate paths one element name at a time:
// an element's state is its parent's state advanced by its name, so no
// element builds its absolute path. This is the interning idea of
// DAG-compressed XML (Böttcher et al.): the repeated root-to-element
// paths are stored once, as trie nodes.
type candTrie struct {
	name string
	cand *config.Candidate // the candidate whose path ends here, if any
	next []*candTrie
}

// newCandTrie builds the trie of cfg's plain candidate paths from their
// compiled steps, so a leading slash or spaces around a step mean what
// they mean to the xpath evaluator. If two plain paths select the same
// elements, the first candidate in configuration order wins.
func newCandTrie(cfg *config.Config) *candTrie {
	root := &candTrie{}
	for i := range cfg.Candidates {
		c := &cfg.Candidates[i]
		if !isPlainPath(c.XPath) {
			continue
		}
		n := root
		for _, st := range c.AbsPath().Steps {
			next := n.child(st.Name)
			if next == nil {
				next = &candTrie{name: st.Name}
				n.next = append(n.next, next)
			}
			n = next
		}
		if n.cand == nil {
			n.cand = c
		}
	}
	return root
}

// child returns the state below n for an element named name, or nil
// when no plain candidate path continues there. A nil state stays nil.
func (n *candTrie) child(name string) *candTrie {
	if n == nil {
		return nil
	}
	for _, c := range n.next {
		if c.name == name {
			return c
		}
	}
	return nil
}

// candidate returns the candidate matched at state n, if any.
func (n *candTrie) candidate() *config.Candidate {
	if n == nil {
		return nil
	}
	return n.cand
}

// isPlainPath reports whether an xpath string is a simple slash-joined
// element-name path (no predicates, wildcards, or descendant axis), so
// instances can be matched by candTrie.
func isPlainPath(p string) bool {
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case '[', ']', '*', '@', '(':
			return false
		case '/':
			if i+1 < len(p) && p[i+1] == '/' {
				return false
			}
		}
	}
	return true
}
