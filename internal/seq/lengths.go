package seq

import "slices"

// LengthStats summarizes a set of sequence lengths: how many, their total,
// the longest and the N50. It is the one length summary of an assembly, for
// its contigs and its scaffolds alike.
type LengthStats struct {
	Count      int
	TotalBases int
	MaxLen     int
	N50        int
}

// SummarizeLengths returns the length summary of lengths, which it does not
// modify. N50 is NG50 against the lengths' own total.
func SummarizeLengths(lengths []int) LengthStats {
	s := LengthStats{Count: len(lengths)}
	for _, l := range lengths {
		s.TotalBases += l
		s.MaxLen = max(s.MaxLen, l)
	}
	s.N50 = NG50(lengths, s.TotalBases)
	return s
}

// NG50 returns the length L such that sequences of length at least L hold at
// least half of target bases: the length at which the running sum over the
// lengths in descending order first reaches half of target. Half is exact,
// not rounded down, so for lengths {3, 2, 2} against their total 7 it is 2
// (3 bases are less than half of 7). It returns 0 if target is not positive
// or the lengths never reach half of it. With a reference genome's length as
// target and aligned block lengths as lengths, it is the NGA50. The argument
// is not modified.
func NG50(lengths []int, target int) int {
	if target <= 0 {
		return 0
	}
	sorted := slices.Clone(lengths)
	slices.Sort(sorted)
	acc := 0
	for i := len(sorted) - 1; i >= 0; i-- {
		acc += sorted[i]
		if acc*2 >= target {
			return sorted[i]
		}
	}
	return 0
}

// LongerFirst is the order assembled sequences are kept and emitted in:
// longer first, then by bytes. It depends only on content, so an order
// built with it does not depend on the rank count.
func LongerFirst(a, b []byte) bool {
	if len(a) != len(b) {
		return len(a) > len(b)
	}
	return string(a) < string(b)
}
