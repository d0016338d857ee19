package seq

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSortByKmer holds the radix sort to Kmer.Less at k-mer lengths that end
// mid-byte, on a word boundary and past it, and to stability on equal keys.
func TestSortByKmer(t *testing.T) {
	type item struct {
		km  Kmer
		pos int
	}
	key := func(it *item) Kmer { return it.km }
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 5, 21, 32, 33, 63, 64} {
		items := make([]item, 500)
		for i := range items {
			s := make([]byte, k)
			for j := range s {
				s[j] = "ACGT"[rng.Intn(4)]
			}
			if i%5 == 4 {
				s = []byte(items[rng.Intn(i)].km.String()) // repeat an earlier key
			}
			items[i] = item{km: MustKmer(string(s)), pos: i}
		}
		want := slices.Clone(items)
		slices.SortStableFunc(want, func(a, b item) int {
			switch {
			case a.km.Less(b.km):
				return -1
			case b.km.Less(a.km):
				return 1
			}
			return 0
		})
		if got := SortByKmer(items, k, key); !slices.Equal(got, want) {
			t.Errorf("k=%d: radix order differs from a stable sort by Kmer.Less", k)
		}
	}
	if got := SortByKmer([]item(nil), 21, key); len(got) != 0 {
		t.Errorf("sorting nothing returned %d items", len(got))
	}
}
