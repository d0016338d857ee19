package seq

import (
	"fmt"
	"iter"
	"math/bits"
)

// MaxK is the largest k-mer length supported by the packed representation.
const MaxK = 64

// Kmer is a DNA k-mer packed two bits per base into a 128-bit value split
// across Hi and Lo. The first (leftmost) base occupies the most significant
// bits of the used region; the last base occupies the least significant two
// bits of Lo. Kmer is a comparable value type and can be used as a map key.
type Kmer struct {
	Hi, Lo uint64
	K      uint8
}

// loMask returns the mask of used bits in Lo for a k-mer of length k.
func loMask(k int) uint64 {
	if k >= 32 {
		return ^uint64(0)
	}
	return (uint64(1) << (2 * uint(k))) - 1
}

// hiMask returns the mask of used bits in Hi for a k-mer of length k.
func hiMask(k int) uint64 {
	if k <= 32 {
		return 0
	}
	return (uint64(1) << (2 * uint(k-32))) - 1
}

// KmerFromBytes packs the first k bases of s into a Kmer. It returns an error
// if k is out of range, s is too short, or s contains an ambiguous base.
func KmerFromBytes(s []byte, k int) (Kmer, error) {
	if k <= 0 || k > MaxK {
		return Kmer{}, fmt.Errorf("seq: k=%d out of range [1,%d]", k, MaxK)
	}
	if len(s) < k {
		return Kmer{}, fmt.Errorf("seq: sequence length %d < k=%d", len(s), k)
	}
	var km Kmer
	km.K = uint8(k)
	for i := 0; i < k; i++ {
		code, ok := CharToBase(s[i])
		if !ok {
			return Kmer{}, fmt.Errorf("seq: ambiguous base %q at position %d", s[i], i)
		}
		km = km.AppendBase(code)
	}
	return km, nil
}

// KmerFromString packs a string into a k-mer of length len(s).
func KmerFromString(s string) (Kmer, error) {
	return KmerFromBytes([]byte(s), len(s))
}

// MustKmer packs a string into a k-mer and panics on error. It is intended
// for tests and literals.
func MustKmer(s string) Kmer {
	km, err := KmerFromString(s)
	if err != nil {
		panic(err)
	}
	return km
}

// AppendBase returns the k-mer obtained by dropping the first base and
// appending code at the end (a forward step in the de Bruijn graph).
func (km Kmer) AppendBase(code byte) Kmer {
	k := int(km.K)
	km.Hi = (km.Hi << 2) | (km.Lo >> 62)
	km.Lo = (km.Lo << 2) | uint64(code&3)
	km.Lo &= loMask(k)
	km.Hi &= hiMask(k)
	return km
}

// PrependBase returns the k-mer obtained by dropping the last base and
// prepending code at the front (a backward step in the de Bruijn graph). A
// right shift of a well-formed k-mer needs no mask, and a shift by 64 or
// more is 0, so the base lands in whichever word holds bit 2(k-1) without a
// branch, as CanonicalKmers rolls its reverse-complement word.
func (km Kmer) PrependBase(code byte) Kmer {
	top := 2*uint(km.K) - 2
	b := uint64(code & 3)
	km.Hi, km.Lo = km.Hi>>2|b<<(top-64), km.Lo>>2|km.Hi<<62|b<<top
	return km
}

// BaseAt returns the 2-bit code of the i-th base (0 = leftmost).
func (km Kmer) BaseAt(i int) byte {
	k := int(km.K)
	pos := uint(2 * (k - 1 - i))
	if pos < 64 {
		return byte((km.Lo >> pos) & 3)
	}
	return byte((km.Hi >> (pos - 64)) & 3)
}

// FirstBase returns the 2-bit code of the leftmost base.
func (km Kmer) FirstBase() byte { return km.BaseAt(0) }

// String renders the k-mer as an ACGT string.
func (km Kmer) String() string {
	return string(km.AppendBases(make([]byte, 0, km.K)))
}

// AppendBases appends the k-mer's bases as ACGT to dst and returns the
// extended slice.
func (km Kmer) AppendBases(dst []byte) []byte {
	for i := 0; i < int(km.K); i++ {
		dst = append(dst, BaseToChar(km.BaseAt(i)))
	}
	return dst
}

// ReverseComplement returns the reverse complement k-mer: the 128-bit value
// is reversed and complemented two bits at a time (revComp64 on each word,
// words swapped), which leaves the result in the top 2k bits, then shifted
// down into place.
func (km Kmer) ReverseComplement() Kmer {
	hi, lo := revComp64(km.Lo), revComp64(km.Hi)
	if s := 128 - 2*uint(km.K); s >= 64 {
		hi, lo = 0, hi>>(s-64)
	} else {
		hi, lo = hi>>s, lo>>s|hi<<(64-s)
	}
	return Kmer{Hi: hi, Lo: lo, K: km.K}
}

// Less reports whether km sorts before other in the 128-bit packed order.
// Both k-mers must have the same length for the comparison to be meaningful.
func (km Kmer) Less(other Kmer) bool {
	if km.Hi != other.Hi {
		return km.Hi < other.Hi
	}
	return km.Lo < other.Lo
}

// Canonical returns the lexicographically smaller of the k-mer and its
// reverse complement, together with a flag reporting whether the reverse
// complement was chosen.
func (km Kmer) Canonical() (Kmer, bool) {
	rc := km.ReverseComplement()
	if rc.Less(km) {
		return rc, true
	}
	return km, false
}

// Hash returns a well-mixed 64-bit hash of the k-mer, suitable for selecting
// the owner rank of a distributed hash table bucket.
func (km Kmer) Hash() uint64 {
	return mix64(km.Lo ^ bits.RotateLeft64(km.Hi, 31) ^ (uint64(km.K) << 56))
}

// mix64 is the splitmix64 finalizer, a cheap high-quality bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// KmerAt is where CanonicalKmers found a k-mer in a sequence.
type KmerAt struct {
	Off int  // the offset of the k-mer's first base
	RC  bool // the sequence holds the canonical form's reverse complement
}

// CanonicalKmers walks the valid k-mers of s in order, skipping windows that
// hold an ambiguous base, and yields each one's canonical form, as
// Kmer.Canonical picks it, with where it was found. It rolls the forward
// and reverse-complement words together, one base at a time, so no k-mer is
// reverse-complemented whole.
func CanonicalKmers(s []byte, k int) iter.Seq2[Kmer, KmerAt] {
	return func(yield func(Kmer, KmerAt) bool) {
		fwd, rc := Kmer{K: uint8(k)}, Kmer{K: uint8(k)}
		lo, hi := loMask(k), hiMask(k)
		top := 2 * uint(k-1) // where a base enters rc
		valid := 0
		for i, c := range s {
			code, ok := CharToBase(c)
			if !ok {
				valid = 0
				continue
			}
			// AppendBase and PrependBase, with the masks and the entry bit
			// computed once per walk; a shift by 64 or more is 0, so the
			// complement lands in whichever word holds bit top.
			b := uint64(code)
			fwd.Hi, fwd.Lo = (fwd.Hi<<2|fwd.Lo>>62)&hi, (fwd.Lo<<2|b)&lo
			rc.Hi, rc.Lo = rc.Hi>>2|(3-b)<<(top-64), rc.Lo>>2|rc.Hi<<62|(3-b)<<top
			if valid++; valid < k {
				continue
			}
			// Two yielded values, not one struct: the compiler keeps a struct
			// of up to four fields in registers, and a k-mer with its
			// position has five.
			canon, at := fwd, KmerAt{Off: i - k + 1}
			if rc.Less(fwd) {
				canon, at.RC = rc, true
			}
			if !yield(canon, at) {
				return
			}
		}
	}
}
