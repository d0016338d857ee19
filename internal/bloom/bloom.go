// Package bloom implements the Bloom filters used by k-mer analysis to avoid
// the memory-footprint explosion caused by erroneous singleton k-mers: a
// k-mer is inserted into the counting hash table only after it has been seen
// at least twice, which the filter detects probabilistically.
//
// Every rank keeps its own filter for the k-mers it owns and probes it only
// after the k-mers have been routed to their owners, so all probes are local.
package bloom

import "math"

// Filter is a standard Bloom filter with double hashing.
type Filter struct {
	bits   []uint64
	nbits  uint64
	hashes int
}

// NewWithEstimates creates a filter sized for n expected entries at the
// given target false-positive rate.
func NewWithEstimates(n uint64, fpRate float64) *Filter {
	if n == 0 {
		n = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	return New(m, k)
}

// New creates a filter with nbits bits and the given number of hash
// functions.
func New(nbits uint64, hashes int) *Filter {
	if nbits < 64 {
		nbits = 64
	}
	if hashes < 1 {
		hashes = 1
	}
	if hashes > maxHashes {
		hashes = maxHashes
	}
	return &Filter{
		bits:   make([]uint64, (nbits+63)/64),
		nbits:  nbits,
		hashes: hashes,
	}
}

// maxHashes bounds the number of hash functions of a filter.
const maxHashes = 16

// indices derives the probe positions from a single 64-bit hash using the
// Kirsch–Mitzenmacher double-hashing construction. The first f.hashes
// elements of the returned array (by value: a probe allocates nothing) are
// the positions.
func (f *Filter) indices(h uint64) (idx [maxHashes]uint64) {
	h1 := h
	h2 := h*0x9e3779b97f4a7c15 + 0x7f4a7c159e3779b9
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	for i := 0; i < f.hashes; i++ {
		idx[i] = (h1 + uint64(i)*h2) % f.nbits
	}
	return idx
}

// TestAndAdd reports whether a pre-hashed key was (probably) present and
// inserts it. False positives are possible; false negatives are not.
func (f *Filter) TestAndAdd(h uint64) bool {
	present := true
	idx := f.indices(h)
	for _, i := range idx[:f.hashes] {
		word, bit := i/64, uint64(1)<<(i%64)
		if f.bits[word]&bit == 0 {
			present = false
			f.bits[word] |= bit
		}
	}
	return present
}
