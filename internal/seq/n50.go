package seq

import (
	"slices"
	"sort"
)

// N50 returns the length L such that sequences of length at least L hold at
// least half of the total bases: the length at which the running sum over the
// lengths in descending order first reaches half the total. Half is exact,
// not rounded down, so for lengths {3, 2, 2} N50 is 2 (3 bases are less than
// half of 7). It returns 0 for no sequences. The argument is not modified.
func N50(lengths []int) int {
	sorted := slices.Clone(lengths)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	total := 0
	for _, l := range sorted {
		total += l
	}
	acc := 0
	for _, l := range sorted {
		acc += l
		if acc*2 >= total {
			return l
		}
	}
	return 0
}
