package seq

import "math/bits"

// Packed is a DNA sequence packed two bits per base, 32 bases per uint64
// word: base i occupies bits [2*(i%32), 2*(i%32)+2) of word i/32, so the
// first base sits in the least significant bits of the first word. Unused
// high bits of the last word are always zero — WordAt and MismatchCount rely
// on that to treat past-the-end bases as zero padding.
//
// Packing is total. A base is read by CharToBase, so lower case packs as its
// base; any other byte (N, an IUPAC code, anything) packs as code 0 and is
// marked in the ambiguity mask, which has the codes' lane layout with bit 2i
// set for an ambiguous base i and is empty when no base is ambiguous. An
// ambiguous base matches nothing, itself included.
//
// Packed is the word-at-a-time representation of the aligner's extend
// kernel: a read and each candidate contig are packed once, and
// MismatchCount compares 32 bases per XOR+popcount step, on either strand
// (SetReverseComplementOf). K-mer analysis decodes its supermers in the same
// layout (KmersFromWords). Sequences built base by base, such as de Bruijn
// paths and compacted chains, are built as ASCII bytes, not packed. A Packed
// value that is set again keeps its buffers, so it is allocation-free in
// steady state.
type Packed struct {
	w   []uint64
	amb []uint64 // ambiguity mask: bit 2i set iff base i is ambiguous; empty when none is
	n   int
}

// lowBaseMask returns the mask selecting the low n bases of a word (n in
// [0, 32]; n == 32 selects the whole word).
func lowBaseMask(n int) uint64 {
	if n >= 32 {
		return ^uint64(0)
	}
	return (uint64(1) << (2 * uint(n))) - 1
}

// PackASCII packs an ASCII sequence into a fresh Packed value (see SetASCII).
func PackASCII(s []byte) Packed {
	var p Packed
	p.SetASCII(s)
	return p
}

// SetASCII replaces the sequence with the packing of s, retaining the
// buffers: each byte CharToBase accepts packs as its code, and every other
// byte as code 0, marked ambiguous. The mask is grown only once a base is
// ambiguous, so an all-ACGT sequence writes no mask word.
func (p *Packed) SetASCII(s []byte) {
	w, amb := p.w[:0], p.amb[:0]
	var cur uint64
	for i, c := range s {
		code, ok := CharToBase(c)
		if !ok {
			code = 0
			for len(amb) <= i>>5 {
				amb = append(amb, 0)
			}
			amb[i>>5] |= 1 << (2 * uint(i&31))
		}
		cur |= uint64(code) << (2 * uint(i&31))
		if i&31 == 31 {
			w = append(w, cur)
			cur = 0
		}
	}
	if len(s)&31 != 0 {
		w = append(w, cur)
	}
	for len(amb) > 0 && len(amb) < len(w) {
		amb = append(amb, 0)
	}
	p.w, p.amb, p.n = w, amb, len(s)
}

// WordAt returns 64 bits (up to 32 bases) of the sequence starting at base
// offset off, with bases past the end reading as zero. This is the
// word-iteration primitive MismatchCount is built on.
func (p Packed) WordAt(off int) uint64 { return WordAt(p.w, off) }

// WordAt returns the 32 bases starting at base off of words packed in
// Packed's layout, with bases past the last word reading as zero. It is the
// one two-word read rule of every packed buffer: Packed's and k-mer
// analysis' supermers.
func WordAt(words []uint64, off int) uint64 {
	wi, sh := off>>5, 2*uint(off&31)
	if wi < 0 || wi >= len(words) {
		return 0
	}
	v := words[wi] >> sh
	if sh > 0 && wi+1 < len(words) {
		v |= words[wi+1] << (64 - sh)
	}
	return v
}

// reverseBases reverses the 32 2-bit lanes of a word: swap adjacent 2-bit
// pairs, swap nibbles, then reverse the bytes. A code word is complemented
// first (code 3-c == c^3 for 2-bit codes); the ambiguity mask is not.
func reverseBases(w uint64) uint64 {
	w = (w&0x3333333333333333)<<2 | (w>>2)&0x3333333333333333
	w = (w&0x0F0F0F0F0F0F0F0F)<<4 | (w>>4)&0x0F0F0F0F0F0F0F0F
	return bits.ReverseBytes64(w)
}

// SetReverseComplementOf replaces p with the reverse complement of src,
// retaining p's buffers; an ambiguous base stays ambiguous. p must not alias
// src. The aligner computes a read's packed reverse complement once per read
// through this and reuses it across every reverse-strand candidate.
func (p *Packed) SetReverseComplementOf(src Packed) {
	p.w = reverseRun(p.w, src.w, src.n, ^uint64(0))
	p.amb = reverseRun(p.amb, src.amb, src.n, 0)
	p.n = src.n
}

// reverseRun writes the n bases packed in src into dst's buffer in reverse
// order, each word XORed with flip first, and returns it. An empty src (an
// empty sequence, or an absent mask) gives an empty run.
func reverseRun(dst, src []uint64, n int, flip uint64) []uint64 {
	nw := len(src)
	if nw == 0 {
		return dst[:0]
	}
	if cap(dst) < nw {
		dst = make([]uint64, nw)
	} else {
		dst = dst[:nw]
	}
	// Reversing every word of src in reverse word order yields the reversed
	// stream preceded by pad garbage bases (the flipped zero padding of the
	// last word); re-align by reading that virtual stream at base offset pad.
	pad := nw*32 - n
	vw := func(i int) uint64 {
		if i < 0 || i >= nw {
			return 0
		}
		return reverseBases(src[nw-1-i] ^ flip)
	}
	sh := 2 * uint(pad)
	for k := 0; k < nw; k++ {
		v := vw(k) >> sh
		if sh > 0 {
			v |= vw(k+1) << (64 - sh)
		}
		dst[k] = v
	}
	dst[nw-1] &= lowBaseMask(n - 32*(nw-1))
	return dst
}

// MismatchCount returns the number of positions where bases [aOff, aOff+n)
// of a differ from bases [bOff, bOff+n) of b, a position with an ambiguous
// base on either side counting as a mismatch. Both ranges must be in bounds.
// Each 64-bit step compares 32 bases: XOR the windows, fold each 2-bit
// group's difference into its low bit with (x|x>>1)&0x5555…, OR in both
// ambiguity masks (whose bits sit in those low bits), then popcount — the
// word-at-a-time trick that replaces the aligner's per-base comparison loop.
// When neither side has a mask, codeMismatches runs without the mask reads.
// a and b are only read; they are pointers because a Packed is seven words,
// and copying two per call took over a quarter of BenchmarkKernelAlignExtend.
func MismatchCount(a, b *Packed, aOff, bOff, n int) int {
	if len(a.amb) == 0 && len(b.amb) == 0 {
		return codeMismatches(a.w, b.w, aOff, bOff, n)
	}
	mm := 0
	for done := 0; done < n; done += 32 {
		x := a.WordAt(aOff+done) ^ b.WordAt(bOff+done)
		x = (x|x>>1)&0x5555555555555555 | WordAt(a.amb, aOff+done) | WordAt(b.amb, bOff+done)
		if rem := n - done; rem < 32 {
			x &= lowBaseMask(rem)
		}
		mm += bits.OnesCount64(x)
	}
	return mm
}

// codeMismatches is MismatchCount over code words alone. It is its own
// loop, not a branch in MismatchCount's, so the all-ACGT case keeps the
// registers the mask reads would take.
func codeMismatches(a, b []uint64, aOff, bOff, n int) int {
	mm := 0
	for done := 0; done < n; done += 32 {
		x := WordAt(a, aOff+done) ^ WordAt(b, bOff+done)
		if rem := n - done; rem < 32 {
			x &= lowBaseMask(rem)
		}
		mm += bits.OnesCount64((x | x>>1) & 0x5555555555555555)
	}
	return mm
}

// KmersFromWords returns the k-mer whose k bases are packed in lo and hi in
// Packed's layout (base i at bits 2i of the 128-bit value hi:lo; bits past
// 2k are ignored), and its reverse complement. Complementing the words gives
// the reverse complement in Kmer's layout directly, so both cost O(1)
// instead of k rolling steps.
func KmersFromWords(lo, hi uint64, k int) (fwd, rc Kmer) {
	rc = Kmer{Hi: ^hi & hiMask(k), Lo: ^lo & loMask(k), K: uint8(k)}
	return rc.ReverseComplement(), rc
}
