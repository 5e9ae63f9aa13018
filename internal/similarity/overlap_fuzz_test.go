package similarity

import (
	"math"
	"slices"
	"testing"
)

// overlapLists decodes fuzz bytes into two multisets of cluster IDs:
// the first byte splits the rest into the two sides, and each byte is
// read as a signed ID, so negative IDs and duplicates are common.
func overlapLists(data []byte) (a, b []int) {
	if len(data) == 0 {
		return nil, nil
	}
	split := 1 + int(data[0])%len(data)
	for _, c := range data[1:split] {
		a = append(a, int(int8(c)))
	}
	for _, c := range data[split:] {
		b = append(b, int(int8(c)))
	}
	return a, b
}

// checkOverlapSorted asserts OverlapSorted over the sorted lists is
// bit-equal to the map-based Overlap over the lists as given.
func checkOverlapSorted(t *testing.T, a, b []int) {
	t.Helper()
	want := Overlap(a, b)
	sa, sb := slices.Clone(a), slices.Clone(b)
	slices.Sort(sa)
	slices.Sort(sb)
	if got := OverlapSorted(sa, sb); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("OverlapSorted(%v, %v) = %v, Overlap = %v", sa, sb, got, want)
	}
}

// FuzzOverlapSortedMatchesOverlap is the differential proof behind the
// merge-walk overlap: on arbitrary multisets — empty sides, duplicate
// and negative IDs included — it returns exactly Overlap's float.
func FuzzOverlapSortedMatchesOverlap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})             // one empty side
	f.Add([]byte{3, 1, 4, 1, 4}) // Fig. 2(b)-style multisets with repeats
	f.Add([]byte{2, 1, 1, 1, 1})
	f.Add([]byte{4, 0xff, 0x80, 0x7f, 0xff, 0x80, 0x00})
	f.Add([]byte{1, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := overlapLists(data)
		checkOverlapSorted(t, a, b)
		checkOverlapSorted(t, b, a)
	})
}

func TestOverlapSortedEdgeCases(t *testing.T) {
	cases := []struct{ a, b []int }{
		{nil, nil},
		{[]int{}, nil},
		{[]int{1}, nil},
		{nil, []int{-3, -3}},
		{[]int{1, 1, 1}, []int{1}},
		{[]int{-2, -1, 0}, []int{-1, 0, 0, 5}},
		{[]int{1, 4, 1}, []int{4, 1, 8}},
		{[]int{7, 7}, []int{7, 7}},
	}
	for _, tc := range cases {
		checkOverlapSorted(t, tc.a, tc.b)
		checkOverlapSorted(t, tc.b, tc.a)
	}
}

func TestOverlapSortedAllocFree(t *testing.T) {
	a, b := []int{1, 2, 2, 5, 9}, []int{2, 2, 3, 9}
	if n := testing.AllocsPerRun(100, func() { OverlapSorted(a, b) }); n != 0 {
		t.Errorf("OverlapSorted allocates %v times per call, want 0", n)
	}
}
