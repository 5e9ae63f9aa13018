package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/runlimit"
	"repro/internal/similarity"
	"repro/internal/xmltree"
)

// GenerateKeysStream is the streaming variant of GenerateKeys: it
// reads the document token by token, through the same tokenizer as
// xmltree.Parse, and only materializes the subtree of the candidate
// instance currently open, so memory stays bounded by the largest
// candidate subtree instead of the whole document — the paper positions
// SXNM for "large amounts of data", and phase 1 is a single pass by
// design (Sec. 3.3).
//
// Element IDs assigned to candidate instances match GenerateKeys
// exactly (the tokenizer numbers elements and significant text nodes
// for both), so the two key generators are interchangeable; a property
// test asserts table equality.
//
// Restriction: candidate paths must be plain element paths (no //, *,
// or predicates), because match decisions are made by the candidate
// trie as each start tag arrives, before the subtree is read.
// Configurations violating this are rejected with an error; use
// GenerateKeys for them.
func GenerateKeysStream(r io.Reader, cfg *config.Config) (*KeyGenResult, error) {
	return GenerateKeysStreamContext(context.Background(), r, cfg, Limits{})
}

// GenerateKeysStreamContext is GenerateKeysStream under a context and
// limits. Because the stream *is* the parse, lim.MaxDepth and
// lim.MaxNodes are enforced on the fly (same semantics as
// xmltree.ParseWithLimits), lim.MaxRows caps rows per candidate, and
// cancellation is polled every few tokens. On interruption the partial
// KeyGenResult is returned together with the typed cause.
func GenerateKeysStreamContext(ctx context.Context, r io.Reader, cfg *config.Config, lim Limits) (*KeyGenResult, error) {
	return GenerateKeysStreamObserved(ctx, r, cfg, lim, nil)
}

// GenerateKeysStreamObserved is GenerateKeysStreamContext with the
// phase traced like GenerateKeysObserved; the span carries an
// additional stream=true attribute.
func GenerateKeysStreamObserved(ctx context.Context, r io.Reader, cfg *config.Config, lim Limits, ob *obs.Observer) (kgOut *KeyGenResult, errOut error) {
	start := time.Now()
	if !ob.Enabled() {
		ob = nil
	}
	if ob != nil {
		sp := ob.StartSpan(obs.SpanKeyGen,
			obs.Int("candidates", len(cfg.Candidates)), obs.Bool(obs.AttrStream, true))
		defer func() { finishKeyGenSpan(sp, ob, kgOut, errOut) }()
	}
	ctx, stop := runlimit.WithTimeout(ctx, lim)
	defer stop()
	bud := newBudget(ctx, lim)

	tables := make(map[string]*GKTable, len(cfg.Candidates))
	for i := range cfg.Candidates {
		c := &cfg.Candidates[i]
		if !isPlainPath(c.XPath) {
			return nil, fmt.Errorf("core: streaming key generation requires plain candidate paths; %q uses predicates, wildcards, or //", c.XPath)
		}
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
	// partial returns the tables filled so far together with the typed
	// interruption cause, preserving completed work.
	partial := func(cause error) (*KeyGenResult, error) {
		return &KeyGenResult{Tables: tables, Duration: time.Since(start)}, cause
	}

	// The tokenizer is the parse: it numbers nodes exactly as
	// xmltree.Parse does and enforces lim.MaxDepth and lim.MaxNodes.
	tz := xmltree.NewTokenizer(r, lim)
	// states holds the candidate-trie state of every open element,
	// below the state of the document itself.
	states := []*candTrie{newCandTrie(cfg)}
	// Inside a candidate instance the subtree is built as xmltree nodes,
	// so the relative-path machinery applies unchanged; cur is the
	// innermost open built element, nil outside every instance.
	var cur *xmltree.Node
	// open lists the open candidate instances, outermost first. desc
	// accumulates the EIDs of the instance's nearest descendant
	// instances by candidate name; they are attached to its row when it
	// closes.
	type openInstance struct {
		cand *config.Candidate
		root *xmltree.Node
		desc map[string][]int
	}
	var open []openInstance

	for tokens := 1; ; tokens++ {
		kind, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if isInterruption(err) {
				return partial(err)
			}
			return nil, fmt.Errorf("core: stream: %w", err)
		}
		if err := bud.poll(tokens); err != nil {
			return partial(err)
		}
		switch kind {
		case xmltree.StartToken:
			at := states[len(states)-1].child(tz.Name())
			states = append(states, at)
			cand := at.candidate()
			if cur == nil && cand == nil {
				continue
			}
			e := &xmltree.Node{Kind: xmltree.ElementNode, Name: tz.Name(), Attrs: tz.AppendAttrs(nil), ID: tz.ID()}
			if cur != nil {
				cur.AppendChild(e)
			}
			cur = e
			if cand != nil {
				open = append(open, openInstance{cand: cand, root: e})
			}
		case xmltree.EndToken:
			states = states[:len(states)-1]
			if cur == nil {
				continue
			}
			if inst := open[len(open)-1]; cur == inst.root {
				open = open[:len(open)-1]
				tbl := tables[inst.cand.Name]
				if err := lim.CheckRows(len(tbl.Rows) + 1); err != nil {
					return partial(err)
				}
				row, err := buildRow(cur, inst.cand)
				if err != nil {
					return nil, err
				}
				row.Desc = inst.desc
				tbl.byEID[row.EID] = len(tbl.Rows)
				tbl.Rows = append(tbl.Rows, row)
				// Register with the nearest open instance. A nested
				// instance's subtree stays attached to its parent's:
				// the parent's relative paths may reach into it.
				if len(open) > 0 {
					parent := &open[len(open)-1]
					if parent.desc == nil {
						parent.desc = make(map[string][]int, 2)
					}
					parent.desc[inst.cand.Name] = append(parent.desc[inst.cand.Name], row.EID)
				}
			}
			cur = cur.Parent
		case xmltree.TextToken:
			if cur == nil {
				continue
			}
			if tz.Merged() {
				last := cur.Children[len(cur.Children)-1]
				last.Data += string(tz.Text())
				continue
			}
			txt := xmltree.NewText(string(tz.Text()))
			txt.ID = tz.ID()
			cur.AppendChild(txt)
		}
	}
	return &KeyGenResult{Tables: tables, Duration: time.Since(start)}, nil
}
