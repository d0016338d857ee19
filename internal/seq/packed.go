package seq

import "math/bits"

// Packed is a DNA sequence packed two bits per base, 32 bases per uint64
// word: base i occupies bits [2*(i%32), 2*(i%32)+2) of word i/32, so the
// first base sits in the least significant bits of the first word. Unused
// high bits of the last word are always zero — WordAt and MismatchCount rely
// on that to treat past-the-end bases as zero padding.
//
// Packed is the word-at-a-time representation of the aligner's extend
// kernel: a read and each candidate contig are packed once, and
// MismatchCount compares 32 bases per XOR+popcount step, on either strand
// (SetReverseComplementOf). K-mer analysis decodes its supermers in the same
// layout (KmersFromWords). Sequences built base by base, such as de Bruijn
// paths and compacted chains, are built as ASCII bytes, not packed. A Packed
// value that is set again keeps its word buffer, so it is allocation-free in
// steady state.
type Packed struct {
	w []uint64
	n int
}

// lowBaseMask returns the mask selecting the low n bases of a word (n in
// [0, 32]; n == 32 selects the whole word).
func lowBaseMask(n int) uint64 {
	if n >= 32 {
		return ^uint64(0)
	}
	return (uint64(1) << (2 * uint(n))) - 1
}

// strictBaseCodes maps an ASCII character to its 2-bit code, accepting only
// upper-case ACGT (0xFF otherwise). The strictness is semantic, not
// cosmetic: packed comparison (MismatchCount) equals byte-wise ASCII
// comparison only when both inputs are upper-case ACGT — a lower-case 'a'
// compares unequal to 'A' in ASCII but would pack to the same code — so the
// packing entry points refuse anything else and let callers fall back to the
// byte path.
var strictBaseCodes [256]byte

func init() {
	for i := range strictBaseCodes {
		strictBaseCodes[i] = 0xFF
	}
	strictBaseCodes['A'] = BaseA
	strictBaseCodes['C'] = BaseC
	strictBaseCodes['G'] = BaseG
	strictBaseCodes['T'] = BaseT
}

// PackASCII packs an upper-case ACGT sequence into a fresh Packed value. It
// reports ok=false (and returns an empty Packed) if s contains any other
// character; see strictBaseCodes for why lower-case bases are refused.
func PackASCII(s []byte) (Packed, bool) {
	var p Packed
	ok := p.SetASCII(s)
	return p, ok
}

// SetASCII replaces the sequence with the packing of s, retaining the word
// buffer. It reports ok=false — leaving the Packed empty — if s contains any
// character other than upper-case ACGT.
func (p *Packed) SetASCII(s []byte) bool {
	w := p.w[:0]
	var cur uint64
	for i, c := range s {
		code := strictBaseCodes[c]
		if code == 0xFF {
			p.w, p.n = w, 0
			return false
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
	p.w, p.n = w, len(s)
	return true
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

// revComp64 reverses the 32 2-bit base groups of a word and complements each
// base. Complementing is a bitwise NOT (code 3-c == c^3 for 2-bit codes);
// the group reversal is the usual butterfly: swap adjacent 2-bit pairs, swap
// nibbles, then reverse the bytes.
func revComp64(w uint64) uint64 {
	w = ^w
	w = (w&0x3333333333333333)<<2 | (w>>2)&0x3333333333333333
	w = (w&0x0F0F0F0F0F0F0F0F)<<4 | (w>>4)&0x0F0F0F0F0F0F0F0F
	return bits.ReverseBytes64(w)
}

// SetReverseComplementOf replaces p with the reverse complement of src,
// retaining p's word buffer. p must not alias src. The aligner computes a
// read's packed reverse complement once per read through this and reuses it
// across every reverse-strand candidate.
func (p *Packed) SetReverseComplementOf(src Packed) {
	n := src.n
	if n == 0 {
		p.w, p.n = p.w[:0], 0
		return
	}
	nw := (n + 31) / 32
	if cap(p.w) < nw {
		p.w = make([]uint64, nw)
	} else {
		p.w = p.w[:nw]
	}
	// Reversing+complementing every word of src in reverse word order yields
	// the reverse-complement stream preceded by pad garbage bases (the
	// complement of the last word's zero padding); re-align by reading that
	// virtual stream at base offset pad.
	pad := nw*32 - n
	vw := func(i int) uint64 {
		if i < 0 || i >= nw {
			return 0
		}
		return revComp64(src.w[nw-1-i])
	}
	sh := 2 * uint(pad)
	for k := 0; k < nw; k++ {
		v := vw(k) >> sh
		if sh > 0 {
			v |= vw(k+1) << (64 - sh)
		}
		p.w[k] = v
	}
	p.w[nw-1] &= lowBaseMask(n - 32*(nw-1))
	p.n = n
}

// MismatchCount returns the number of positions where bases [aOff, aOff+n)
// of a differ from bases [bOff, bOff+n) of b. Both ranges must be in
// bounds. Each 64-bit step compares 32 bases: XOR the windows, fold each
// 2-bit group's difference into its low bit with (x|x>>1)&0x5555…, then
// popcount — the word-at-a-time trick that replaces the aligner's per-base
// comparison loop.
func MismatchCount(a, b Packed, aOff, bOff, n int) int {
	mm := 0
	for done := 0; done < n; done += 32 {
		x := a.WordAt(aOff+done) ^ b.WordAt(bOff+done)
		if rem := n - done; rem < 32 {
			x &= lowBaseMask(rem)
		}
		x = (x | x>>1) & 0x5555555555555555
		mm += bits.OnesCount64(x)
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
