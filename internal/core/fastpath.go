package core

import (
	"repro/internal/config"
	"repro/internal/similarity"
)

// This file is the threshold-aware comparison fast path behind
// Options.UseFilter (paper Sec. 5). The slow path normalizes and fully
// edit-distances every value pair of every window pair; the fast path
// runs a bound stack instead:
//
//	length ⊆ frequency sketch  →  banded edit  →  full edit
//
// 1. Per-row sketches (normalized string, rune length, 32-bin rune
//    histogram) are computed once per row — window pairs stop paying
//    strutil.Normalize and rune decoding per comparison.
// 2. Per field, the best sketch bound caps the best-match similarity;
//    the weighted optimistic fold over all fields prunes pairs whose
//    most favorable outcome still fails the classification rule.
// 3. Surviving pairs resolve fields one at a time (cheap non-edit
//    similarities first), re-testing after each: the optimistic fold
//    proves "cannot become a duplicate" (skip the rest, FilteredOut),
//    the pessimistic fold proves "cannot miss" (duplicate, stop early).
// 4. Edit fields run LevenshteinBounded with a band derived from the
//    classification threshold and the field's weight; a cut-off yields
//    a sound upper bound instead of an exact score.
// 5. If the bounds never force a verdict, the cut-off fields escalate
//    to full edit distance — the aggregate is then the slow path's
//    float64, bit for bit.
//
// Determinism contract (proven by the differential suite): duplicate
// verdicts, clusters, checkpoint streams, and the attempted-comparison
// count are byte-identical to the slow path; the only licensed
// difference is that PairObservation.ODSim reports a deterministic
// bound instead of the exact aggregate for pairs decided early (an
// upper bound for filtered pairs, a lower bound for short-circuited
// duplicates). Everything here is also bit-identical across
// PairWorkers settings: bounds depend only on the pair.
//
// Soundness leans on two facts. decide() is monotone nondecreasing in
// odSim for every built-in rule, so deciding on an upper (lower) bound
// can only under- (over-) approximate "duplicate" — never flip it.
// And both folds replicate ODSimilarity's left-fold over the same
// field order with term-wise bounds; IEEE-754 +, *, / are monotone per
// operation, so the folded bounds hold even at ulp granularity (a
// reassociated sum would not be safe).

// Field classification for the staged evaluation.
const (
	fsAbsent   uint8 = iota // both sides missing: no weight, no term
	fsOneSided              // one side missing: weight, no term
	fsEdit                  // two-sided, edit measure: sketch + banded path
	fsOther                 // two-sided, other measure: trivial bound, direct compute
)

// maxStackFields keeps the per-pair scratch vectors off the heap for
// every realistic configuration.
const maxStackFields = 16

// comparePairFiltered evaluates one pair under the bound stack; the
// returned tuple plugs into comparePair's slot for the built-in rules.
func comparePairFiltered(t *GKTable, a, b *GKRow, descSim float64, hasDesc bool) (odSim float64, dup, filtered bool, err error) {
	fields := t.fields
	if len(a.OD) != len(fields) || len(b.OD) != len(fields) {
		// Malformed rows: surface the identical mismatch error through
		// the slow path.
		odSim, err = similarity.ODSimilarity(fields, a.OD, b.OD)
		return odSim, false, false, err
	}
	n := len(fields)
	var stBuf [maxStackFields]uint8
	var optBuf, pesBuf [maxStackFields]float64
	var st []uint8
	var opt, pes []float64
	if n <= maxStackFields {
		st, opt, pes = stBuf[:n], optBuf[:n], pesBuf[:n]
	} else {
		st, opt, pes = make([]uint8, n), make([]float64, n), make([]float64, n)
	}
	ska, skb := rowSketches(t, a), rowSketches(t, b)

	// Classify fields and seed the optimistic vector with the sketch
	// bound (edit fields) or the trivial bound 1 (everything else).
	// The pessimistic vector starts at 0.
	for i := range fields {
		va, vb := a.OD[i], b.OD[i]
		switch {
		case len(va) == 0 && len(vb) == 0:
			st[i] = fsAbsent
		case len(va) == 0 || len(vb) == 0:
			st[i] = fsOneSided
		case i < len(t.bounds) && t.bounds[i]:
			st[i] = fsEdit
			opt[i] = similarity.EditUpperBoundValues(fieldSketches(ska, i, va), fieldSketches(skb, i, vb))
		default:
			st[i] = fsOther
			opt[i] = 1
		}
	}
	dec := func(v float64) bool { return decide(t.Candidate, v, descSim, hasDesc) }

	// Cannot-miss pre-check: decide is monotone nondecreasing in odSim,
	// so a positive verdict at the all-zero lower bound already holds
	// for the exact aggregate (e.g. RuleEither satisfied by the
	// descendant similarity alone). The reported odSim is that bound.
	if dec(0) {
		return 0, true, false, nil
	}

	// Resolve fields one by one, re-testing the folds before each
	// computation; the first test (everything at its sketch/trivial
	// bound) is the classic upper-bound filter, now sketch-powered.
	need := -1.0 // lazily derived OD-level duplicate threshold
	resolve := func(i int) (float64, bool, bool, bool) {
		if o := foldOD(fields, st, opt); !dec(o) {
			return o, false, true, true // cannot reach the rule: filtered
		}
		if p := foldOD(fields, st, pes); dec(p) {
			return p, true, false, true // cannot miss: duplicate
		}
		f := fields[i]
		if st[i] == fsOther {
			v := similarity.BestMatch(f.Sim, a.OD[i], b.OD[i])
			opt[i], pes[i] = v, v
			return 0, false, false, false
		}
		if need < 0 {
			need = odNeedThreshold(t.Candidate, descSim, hasDesc)
		}
		fn := fieldNeed(fields, st, opt, need, i)
		lo, hi := bestMatchEditBounded(a.OD[i], b.OD[i],
			fieldSketches(ska, i, a.OD[i]), fieldSketches(skb, i, b.OD[i]), fn)
		opt[i], pes[i] = hi, lo
		return 0, false, false, false
	}
	// Cheap similarities first: an exact year/numeric/jaccard value
	// tightens both folds before any edit distance runs, so the edit
	// fields see the smallest possible band (or are skipped outright).
	for i := range fields {
		if st[i] == fsOther {
			if v, d, flt, done := resolve(i); done {
				return v, d, flt, nil
			}
		}
	}
	for i := range fields {
		if st[i] == fsEdit {
			if v, d, flt, done := resolve(i); done {
				return v, d, flt, nil
			}
		}
	}

	// All fields resolved. Fields whose banded runs were cut off hold
	// an interval [pes, opt]; if the bounds force a verdict, report the
	// deciding bound, otherwise escalate the cut-off fields to full
	// edit distance — the aggregate is then the slow path's, bit for
	// bit.
	exact := true
	for i := range fields {
		if st[i] == fsEdit && opt[i] != pes[i] {
			exact = false
			break
		}
	}
	if !exact {
		if o := foldOD(fields, st, opt); !dec(o) {
			return o, false, true, nil
		}
		if p := foldOD(fields, st, pes); dec(p) {
			return p, true, false, nil
		}
		for i := range fields {
			if st[i] == fsEdit && opt[i] != pes[i] {
				v := similarity.BestMatch(fields[i].Sim, a.OD[i], b.OD[i])
				opt[i], pes[i] = v, v
			}
		}
	}
	odSim = foldOD(fields, st, pes)
	return odSim, dec(odSim), false, nil
}

// foldOD replicates ODSimilarity's aggregation — same field order,
// same weight accumulation, same one-sided/absent handling, same final
// division — over per-field values from val. With exact per-field
// values the result is bit-identical to the slow path; with term-wise
// bounds it is a sound bound on it (monotonicity of float64 +, *, /).
func foldOD(fields []similarity.ODField, st []uint8, val []float64) float64 {
	var sum, weight float64
	for i, f := range fields {
		switch st[i] {
		case fsAbsent:
		case fsOneSided:
			weight += f.Relevance
		default:
			weight += f.Relevance
			sum += f.Relevance * val[i]
		}
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}

// odNeedThreshold returns the smallest OD similarity at which decide
// could still classify the pair a duplicate — the threshold the banded
// edit path derives its cut-off band from. Heuristic by design: the
// band affects how much work is skipped, never the verdict (cut-off
// results come back as bounds and escalate when the verdict is open).
func odNeedThreshold(c *config.Candidate, descSim float64, hasDesc bool) float64 {
	switch c.Rule {
	case config.RuleEither, config.RuleBoth:
		// The descendant leg is settled before any field resolves: a
		// satisfied RuleEither leg fires the cannot-miss pre-check, a
		// failed RuleBoth leg fires the first optimistic fold.
		return c.ODThreshold
	default: // RuleCombined
		if !hasDesc {
			return c.Threshold
		}
		w := c.ODWeight
		if w < 0 {
			w = 0
		}
		if w > 1 {
			w = 1
		}
		if w == 0 {
			return 0 // verdict independent of odSim; settled by the pre-checks
		}
		return (c.Threshold - (1-w)*descSim) / w
	}
}

// fieldNeed translates the pair-level OD target into field i's own
// unit-similarity target, assuming every other field at its current
// optimistic value: scores at or below the target cannot flip the
// verdict, so the banded edit run may cut off there.
func fieldNeed(fields []similarity.ODField, st []uint8, opt []float64, need float64, i int) float64 {
	ri := fields[i].Relevance
	if ri <= 0 {
		return 0
	}
	var others, weight float64
	for j, f := range fields {
		if st[j] == fsAbsent {
			continue
		}
		weight += f.Relevance
		if j != i && st[j] != fsOneSided {
			others += f.Relevance * opt[j]
		}
	}
	fn := (need*weight - others) / ri
	if fn < 0 {
		return 0
	}
	if fn > 1 {
		return 1
	}
	return fn
}

// bestMatchEditBounded is BestMatch for an edit-measure field under a
// cut-off: value pairs whose sketch bound cannot raise the best match
// are skipped, the rest run editScore with the cut-off at
// max(best so far, need). Returns the exact best over the pairs scored
// exactly (lo) and the field-level upper bound (hi) — max of lo and
// the cut-off bounds. lo is the slow path's best match whenever
// lo == hi: skipped pairs were bounded at or below lo, and cut-off
// pairs at or below lo are equally unable to raise the slow maximum.
func bestMatchEditBounded(va, vb []string, ska, skb []similarity.ValueSketch, need float64) (lo, hi float64) {
	best, capHi := 0.0, 0.0
	for xi := range va {
		for yi := range vb {
			sx, sy := &ska[xi], &skb[yi]
			if u := similarity.EditUpperBoundSketch(sx, sy); u <= best {
				continue // cannot raise the best match
			}
			thr := best
			if need > thr {
				thr = need
			}
			v, exact := editScore(sx, sy, thr)
			if exact {
				if v > best {
					best = v
					if best == 1 {
						return 1, 1 // mirror BestMatch's early exit
					}
				}
			} else if v > capHi {
				capHi = v
			}
		}
	}
	hi = best
	if capHi > hi {
		hi = capHi
	}
	return best, hi
}

// editScore scores one value pair of an edit field under a cut-off
// threshold: scores above thr come back exact — bit-identical to
// NormalizedEdit on the raw values, since the sketch holds the same
// normalized strings, LevenshteinBounded equals Levenshtein within the
// band, and NormalizedEditFromDistance repeats the exact float ops —
// and scores at or below thr may come back as a sound upper bound with
// exact=false.
func editScore(sx, sy *similarity.ValueSketch, thr float64) (v float64, exact bool) {
	m := sx.RuneLen
	if sy.RuneLen > m {
		m = sy.RuneLen
	}
	if m == 0 || (sx.RuneLen == sy.RuneLen && sx.Norm == sy.Norm) {
		return 1, true // NormalizedEdit's equal-or-empty rule
	}
	// Derive the band: d ≤ band covers every score above thr, because
	// sim = 1 − d/m. band ≥ m never cuts off (d never exceeds m).
	band := m
	if thr > 0 {
		band = int((1 - thr) * float64(m))
		if band < 0 {
			band = 0
		}
		if band > m {
			band = m
		}
	}
	d := similarity.LevenshteinBounded(sx.Norm, sy.Norm, band)
	if d > band {
		// Cut off: d ≥ band+1, so 1 − (band+1)/m bounds the true
		// similarity from above.
		return similarity.NormalizedEditFromDistance(band+1, m), false
	}
	return similarity.NormalizedEditFromDistance(d, m), true
}

// sketchRow precomputes the per-value sketches of every edit-bounded
// OD field of one row. Idempotent; rows carry their sketches through
// struct copies (baselines, merges). Sketches are derived data — never
// serialized, always recomputed where rows are rebuilt (spill decode).
func (t *GKTable) sketchRow(r *GKRow) {
	r.odSketch = buildRowSketches(t, r)
	r.sketched = true
}

// ensureSketches prepares a resident table for the fast path; rows
// already sketched (an earlier Detect over the same tables) are kept.
// Runs before the sweep starts, so pair workers only ever read.
func ensureSketches(t *GKTable) {
	for i := range t.Rows {
		if !t.Rows[i].sketched {
			t.sketchRow(&t.Rows[i])
		}
	}
}

func buildRowSketches(t *GKTable, r *GKRow) [][]similarity.ValueSketch {
	var sk [][]similarity.ValueSketch
	for i, vals := range r.OD {
		if i < len(t.bounds) && t.bounds[i] && len(vals) > 0 {
			if sk == nil {
				sk = make([][]similarity.ValueSketch, len(r.OD))
			}
			sk[i] = similarity.SketchValues(vals)
		}
	}
	return sk
}

// rowSketches returns a row's precomputed sketches, building a
// detached copy for rows from a source that skipped preparation
// (defensive — rows are shared across pair workers, so never mutate
// here).
func rowSketches(t *GKTable, r *GKRow) [][]similarity.ValueSketch {
	if r.sketched {
		return r.odSketch
	}
	return buildRowSketches(t, r)
}

// fieldSketches returns the sketches of one field, sketching on the
// fly when the row-level slice lacks them (same defensive rule).
func fieldSketches(sk [][]similarity.ValueSketch, i int, vals []string) []similarity.ValueSketch {
	if i < len(sk) && sk[i] != nil {
		return sk[i]
	}
	return similarity.SketchValues(vals)
}
