package seq

import (
	"slices"
	"testing"
)

func TestN50(t *testing.T) {
	for _, tc := range []struct {
		lengths []int
		want    int
	}{
		{nil, 0},
		{[]int{5}, 5},
		// An odd total: 3 bases are less than half of 7, so the next
		// length counts.
		{[]int{3, 2, 2}, 2},
		{[]int{2, 3, 2}, 2},
		{[]int{200, 100}, 200},
		{[]int{10, 50, 100}, 100},
		{[]int{4, 4, 1, 1}, 4},
	} {
		in := slices.Clone(tc.lengths)
		if got := N50(in); got != tc.want {
			t.Errorf("N50(%v) = %d, want %d", tc.lengths, got, tc.want)
		}
		if !slices.Equal(in, tc.lengths) {
			t.Errorf("N50 reordered its argument: %v", in)
		}
	}
}
