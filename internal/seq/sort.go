package seq

// SortByKmer sorts xs into Kmer.Less order of key(x), where every key is a
// k-mer of length k, and returns them, reusing xs's storage or a buffer of
// its size. It is an LSD radix sort over the 2k key bits, one byte per pass:
// stable, O(passes · len(xs)), and without the indirect comparator calls
// that made a comparison sort a third of de Bruijn traversal's host time.
// key is called once per element per pass.
func SortByKmer[T any](xs []T, k int, key func(*T) Kmer) []T {
	tmp := make([]T, len(xs))
	digits := make([]byte, len(xs))
	for shift := uint(0); shift < 2*uint(k); shift += 8 {
		var next [256]int
		for i := range xs {
			d := key(&xs[i]).byteAt(shift)
			digits[i] = d
			next[d]++
		}
		pos := 0
		for b, n := range next {
			next[b] = pos
			pos += n
		}
		for i, d := range digits {
			tmp[next[d]] = xs[i]
			next[d]++
		}
		xs, tmp = tmp, xs
	}
	return xs
}

// byteAt returns the byte of km's 128-bit packed value at bit shift (a
// multiple of 8, so the byte never straddles the two words).
func (km Kmer) byteAt(shift uint) byte {
	if shift >= 64 {
		return byte(km.Hi >> (shift - 64))
	}
	return byte(km.Lo >> shift)
}
