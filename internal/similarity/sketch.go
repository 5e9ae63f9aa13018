package similarity

import "repro/internal/strutil"

// This file implements the precomputed per-value sketches behind the
// threshold-aware comparison fast path (paper Sec. 5: "filters are
// quite effective to avoid comparisons, especially with the edit
// distance operations"). A ValueSketch is computed once per OD value
// when a GK row is built; every later window comparison then gets
//
//   - the normalized string without re-running strutil.Normalize,
//   - the rune length for the classic length bound, and
//   - a 32-bin character-frequency histogram whose L1 mismatch lower-
//     bounds the edit distance where length alone cannot (anagram-like
//     values have equal lengths but disjoint histograms).
//
// Soundness contract (fuzzed by FuzzBoundSoundness): for any raw
// strings a, b,
//
//	EditUpperBoundSketch(Sketch(a), Sketch(b)) >= NormalizedEdit(a, b)
//
// bit-for-bit in float64 — the bound is 1 − dLB/m with an integer
// dLB <= d computed by the same division and subtraction the exact
// similarity uses, and IEEE-754 division and subtraction are monotone,
// so the inequality survives rounding.

// SketchBins is the histogram width. Normalized values are uppercase
// folded, so the Latin letters get a bin each, digits share four bins,
// and whitespace/other runes get one bin apiece; hashing distinct runes
// into one bin only merges counts, which weakens the bound but never
// breaks it.
const SketchBins = 32

// ValueSketch is the precomputed comparison state of one OD value.
type ValueSketch struct {
	// Norm is strutil.Normalize of the raw value — the exact string
	// NormalizedEdit would compare.
	Norm string
	// RuneLen is the rune count of Norm.
	RuneLen int
	// Hist counts Norm's runes per sketch bin.
	Hist [SketchBins]int32
}

// SketchValue computes the sketch of one raw OD value.
func SketchValue(raw string) ValueSketch {
	s := ValueSketch{Norm: strutil.Normalize(raw)}
	for _, r := range s.Norm {
		s.RuneLen++
		s.Hist[sketchBin(r)]++
	}
	return s
}

// SketchValues sketches a whole OD field (one sketch per value).
func SketchValues(raw []string) []ValueSketch {
	if len(raw) == 0 {
		return nil
	}
	out := make([]ValueSketch, len(raw))
	for i, v := range raw {
		out[i] = SketchValue(v)
	}
	return out
}

// sketchBin maps a normalized rune to its histogram bin.
func sketchBin(r rune) int {
	switch {
	case r >= 'A' && r <= 'Z':
		return int(r - 'A') // 0..25
	case r >= '0' && r <= '9':
		return 26 + int(r-'0')&3 // 26..29
	case r == ' ':
		return 30
	default:
		return 31
	}
}

// EditDistanceLowerBound returns an integer lower bound on the
// Levenshtein distance of the two normalized strings. Each edit
// operation changes at most one histogram count on each side, so the
// one-sided surpluses pos = Σ max(0, hA−hB) and neg = Σ max(0, hB−hA)
// are both lower bounds; their difference is the length difference, so
// max(pos, neg) subsumes the classic |len(a)−len(b)| bound.
func EditDistanceLowerBound(a, b *ValueSketch) int {
	var pos, neg int32
	for i := range a.Hist {
		if d := a.Hist[i] - b.Hist[i]; d > 0 {
			pos += d
		} else {
			neg -= d
		}
	}
	if pos >= neg {
		return int(pos)
	}
	return int(neg)
}

// NormalizedEditFromDistance maps an edit distance d over normalized
// strings of maximum rune length m to the similarity NormalizedEdit
// would report: 1 − d/m, computed with the identical float64 operation
// order, so plugging in the true distance reproduces the exact
// similarity bit-for-bit. It is strictly decreasing in d for any
// realistic m, which is what makes 1 − (band+1)/m a sound upper bound
// for a banded computation that was cut off.
func NormalizedEditFromDistance(d, m int) float64 {
	return 1 - float64(d)/float64(m)
}

// EditUpperBoundSketch bounds NormalizedEdit of the two underlying raw
// values from above using only the precomputed sketches: no
// normalization, no rune decoding, no edit distance — 32 integer
// subtractions and one division.
func EditUpperBoundSketch(a, b *ValueSketch) float64 {
	if a.RuneLen == 0 && b.RuneLen == 0 {
		return 1
	}
	m := a.RuneLen
	if b.RuneLen > m {
		m = b.RuneLen
	}
	return NormalizedEditFromDistance(EditDistanceLowerBound(a, b), m)
}
