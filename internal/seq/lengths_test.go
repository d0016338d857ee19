package seq

import (
	"slices"
	"testing"
)

func TestSummarizeLengthsAndNG50(t *testing.T) {
	for _, tc := range []struct {
		lengths []int
		target  int         // NG50's target
		ng50    int         // NG50(lengths, target)
		want    LengthStats // SummarizeLengths(lengths)
	}{
		{nil, 0, 0, LengthStats{}},
		{nil, 100, 0, LengthStats{}},
		{[]int{5}, 5, 5, LengthStats{Count: 1, TotalBases: 5, MaxLen: 5, N50: 5}},
		// An odd total: 3 bases are less than half of 7, so the next
		// length counts.
		{[]int{3, 2, 2}, 7, 2, LengthStats{Count: 3, TotalBases: 7, MaxLen: 3, N50: 2}},
		{[]int{2, 3, 2}, 7, 2, LengthStats{Count: 3, TotalBases: 7, MaxLen: 3, N50: 2}},
		{[]int{200, 100}, 300, 200, LengthStats{Count: 2, TotalBases: 300, MaxLen: 200, N50: 200}},
		{[]int{10, 50, 100}, 160, 100, LengthStats{Count: 3, TotalBases: 160, MaxLen: 100, N50: 100}},
		{[]int{4, 4, 1, 1}, 10, 4, LengthStats{Count: 4, TotalBases: 10, MaxLen: 4, N50: 4}},
		{[]int{0, 0}, 0, 0, LengthStats{Count: 2}},
		// Target 0: there is nothing to reach.
		{[]int{600, 300}, 0, 0, LengthStats{Count: 2, TotalBases: 900, MaxLen: 600, N50: 600}},
		// The NGA50 of one dominant block against a longer genome.
		{[]int{600, 300, 200}, 1000, 600, LengthStats{Count: 3, TotalBases: 1100, MaxLen: 600, N50: 600}},
		// A target the lengths never reach half of.
		{[]int{100, 100}, 1000, 0, LengthStats{Count: 2, TotalBases: 200, MaxLen: 100, N50: 100}},
	} {
		in := slices.Clone(tc.lengths)
		if got := SummarizeLengths(in); got != tc.want {
			t.Errorf("SummarizeLengths(%v) = %+v, want %+v", tc.lengths, got, tc.want)
		}
		if got := NG50(in, tc.target); got != tc.ng50 {
			t.Errorf("NG50(%v, %d) = %d, want %d", tc.lengths, tc.target, got, tc.ng50)
		}
		if !slices.Equal(in, tc.lengths) {
			t.Errorf("the summary reordered its argument: %v", in)
		}
	}
}

func TestLongerFirst(t *testing.T) {
	in := []string{"ACG", "T", "AAAA", "ACC", "", "TTTT"}
	want := []string{"AAAA", "TTTT", "ACC", "ACG", "T", ""}
	slices.SortFunc(in, func(a, b string) int {
		if LongerFirst([]byte(a), []byte(b)) {
			return -1
		}
		if LongerFirst([]byte(b), []byte(a)) {
			return 1
		}
		return 0
	})
	if !slices.Equal(in, want) {
		t.Errorf("sorted by LongerFirst = %q, want %q", in, want)
	}
}
