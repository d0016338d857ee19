package seq

// MinimizerLen is the minimizer length M: a k-mer's minimizer is taken over
// its m-mers with m = min(MinimizerLen, k). It was chosen from {11, 13, 15}
// by the k-mer analysis stage's load balance and simulated time (DESIGN.md
// §2).
const MinimizerLen = 11

// minimizerSalt is XORed into an m-mer before mixing: mix64(0) is 0, so
// without it the all-A m-mer would be every k-mer's minimizer that holds it,
// and poly-A would pile onto one owner.
const minimizerSalt = 0x9e3779b97f4a7c15

// MinimizerWidth returns the minimizer length m for k-mers of length k.
func MinimizerWidth(k int) int { return min(MinimizerLen, k) }

// MerRank returns the order key of one m-mer, given its packed forward and
// reverse-complement values: a mix64 hash of the canonical (smaller) one, so
// both strands rank an m-mer alike and the order is not lexicographic. A
// k-mer's minimizer is the smallest rank of its m-mers; Kmer.Minimizer
// computes it, and a rolling scan over a read must agree with it.
func MerRank(fwd, rc uint64) uint64 { return mix64(min(fwd, rc) ^ minimizerSalt) }

// Minimizer returns the smallest MerRank over the k-mer's m-mers, m =
// MinimizerWidth(k). A k-mer and its reverse complement share it, so it can
// own a canonical k-mer: every k-mer of a read's run that shares one
// minimizer has one owner. It costs k-m+1 hashes; a table probe uses
// Kmer.Hash instead.
func (km Kmer) Minimizer() uint64 {
	k := int(km.K)
	m := MinimizerWidth(k)
	mask := uint64(1)<<(2*uint(m)) - 1
	rc := km.ReverseComplement()
	best := ^uint64(0)
	for i := 0; i+m <= k; i++ {
		// The m-mer at offset i ends 2(k-m-i) bits above the k-mer's least
		// significant base; its reverse complement is rc's m-mer at offset
		// k-m-i, which ends 2i bits above rc's.
		best = min(best, MerRank(km.bitsFrom(2*uint(k-m-i))&mask, rc.bitsFrom(2*uint(i))&mask))
	}
	return best
}

// bitsFrom returns the low 64 bits of the 128-bit packed value shifted right
// by s bits.
func (km Kmer) bitsFrom(s uint) uint64 {
	switch {
	case s == 0:
		return km.Lo
	case s >= 64:
		return km.Hi >> (s - 64)
	}
	return km.Lo>>s | km.Hi<<(64-s)
}
