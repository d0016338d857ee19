package seq

import "slices"

// MinimizerLen is the minimizer length M: a k-mer's minimizer is taken over
// its m-mers with m = min(MinimizerLen, k). It was chosen from {11, 13, 15}
// by the k-mer analysis stage's load balance and simulated time (DESIGN.md
// §2).
const MinimizerLen = 11

// minimizerSalt is XORed into an m-mer before mixing: mix64(0) is 0, so
// without it the all-A m-mer would be every k-mer's minimizer that holds it,
// and poly-A would pile onto one owner.
const minimizerSalt = 0x9e3779b97f4a7c15

// minimizerWidth returns the minimizer length m for k-mers of length k.
func minimizerWidth(k int) int { return min(MinimizerLen, k) }

// merRank returns the order key of one m-mer, given its packed forward and
// reverse-complement values: a mix64 hash of the canonical (smaller) one, so
// both strands rank an m-mer alike and the order is not lexicographic. A
// k-mer's minimizer is the smallest rank of its m-mers.
func merRank(fwd, rc uint64) uint64 { return mix64(min(fwd, rc) ^ minimizerSalt) }

// Minimizer returns the smallest merRank over the k-mer's m-mers, m =
// minimizerWidth(k). A k-mer and its reverse complement share it, so it can
// own a canonical k-mer: every k-mer of a read's run that shares one
// minimizer has one owner. It is the per-key form of MinimizerWindow and
// costs k-m+1 hashes; a table probe uses Kmer.Hash instead.
func (km Kmer) Minimizer() uint64 {
	k := int(km.K)
	m := minimizerWidth(k)
	mask := uint64(1)<<(2*uint(m)) - 1
	rc := km.ReverseComplement()
	best := ^uint64(0)
	for i := 0; i+m <= k; i++ {
		// The m-mer at offset i ends 2(k-m-i) bits above the k-mer's least
		// significant base; its reverse complement is rc's m-mer at offset
		// k-m-i, which ends 2i bits above rc's.
		best = min(best, merRank(km.bitsFrom(2*uint(k-m-i))&mask, rc.bitsFrom(2*uint(i))&mask))
	}
	return best
}

// MinimizerWindow is the rolling form of Kmer.Minimizer, the (w,k)-minimizer
// scan of minimap2 with w = k-m+1 m-mers per k-mer. Fed a sequence's bases
// in order, it rolls the forward and reverse-complement m-mer ending at each
// base, keeps the last w ranks in a ring, and returns the minimum over them:
// the minimizer of the k-mer ending there, the value Kmer.Minimizer
// computes, at about one hash per base instead of w. NewMinimizerWindow
// makes one; the zero value is not ready.
type MinimizerWindow struct {
	k, span int          // the k-mer length and w
	mask    uint64       // the low 2m bits
	shift   uint         // 2(m-1), where a reverse-complement base enters
	fm, rm  uint64       // the forward and reverse-complement m-mer ending at the last base
	n       int          // bases pushed since the last Reset
	ring    [MaxK]uint64 // the rank of the m-mer ending at the j-th base, at j mod MaxK
	best    uint64       // the current window's minimum rank
	bestAt  int          // the j of its last occurrence
}

// NewMinimizerWindow returns an empty window for k-mers of length k.
func NewMinimizerWindow(k int) MinimizerWindow {
	m := minimizerWidth(k)
	return MinimizerWindow{k: k, span: k - m + 1, mask: 1<<(2*uint(m)) - 1, shift: 2 * uint(m-1)}
}

// Reset empties the window, as an ambiguous base in the sequence does.
func (w *MinimizerWindow) Reset() { w.n = 0 }

// Push appends the base with 2-bit code c and returns the minimizer of the
// k-mer ending at it, or false while fewer than k bases have been pushed
// since the last Reset.
func (w *MinimizerWindow) Push(c byte) (uint64, bool) {
	w.fm = (w.fm<<2 | uint64(c)) & w.mask
	w.rm = w.rm>>2 | uint64(3-c)<<w.shift
	w.n++
	// Before the m-th base the rank is of a partial m-mer; no window the
	// scan reads holds it.
	r := merRank(w.fm, w.rm)
	w.ring[uint(w.n)%MaxK] = r
	switch {
	case w.n < w.k:
		return 0, false
	case w.n == w.k || w.bestAt <= w.n-w.span:
		w.rescan() // a fresh window, or its minimum just left it
	case r <= w.best:
		w.best, w.bestAt = r, w.n
	}
	return w.best, true
}

// rescan finds the minimum of the window ending at the last base.
func (w *MinimizerWindow) rescan() {
	w.best = ^uint64(0)
	for j := w.n - w.span + 1; j <= w.n; j++ {
		if r := w.ring[uint(j)%MaxK]; r <= w.best {
			w.best, w.bestAt = r, j
		}
	}
}

// Minimizers returns the minimizer of every k-mer of s, by offset, in dst's
// storage: element off is Kmer.Minimizer of the k-mer at offset off, the one
// CanonicalKmers(s, k) yields with KmerAt.Off == off, and 0 where that k-mer
// holds an ambiguous base (no k-mer's minimizer is 0: mix64 is a bijection
// that maps only 0 to 0, and no m-mer equals minimizerSalt). It pushes s
// through one MinimizerWindow and resets it at an ambiguous base, as k-mer
// analysis cuts reads into supermers, so a caller that owns k-mers by
// minimizer takes each owner from the window at about one hash per base,
// not k-m+1 per k-mer.
func Minimizers(dst []uint64, s []byte, k int) []uint64 {
	n := len(s) - k + 1
	if n <= 0 {
		return dst[:0]
	}
	dst = slices.Grow(dst[:0], n)[:n]
	clear(dst)
	w := NewMinimizerWindow(k)
	for i, c := range s {
		code, ok := CharToBase(c)
		if !ok {
			w.Reset()
			continue
		}
		if mz, full := w.Push(code); full {
			dst[i-k+1] = mz
		}
	}
	return dst
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
