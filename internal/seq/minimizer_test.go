package seq

import (
	"math/rand"
	"strings"
	"testing"
)

// minimizerOf is the string oracle of Kmer.Minimizer: every m-mer of the
// k-mer's bases packed on its own, ranked by merRank.
func minimizerOf(s string) uint64 {
	m := minimizerWidth(len(s))
	best := ^uint64(0)
	for i := 0; i+m <= len(s); i++ {
		f := MustKmer(s[i : i+m])
		best = min(best, merRank(f.Lo, f.ReverseComplement().Lo))
	}
	return best
}

// TestMinimizerMatchesStringOracle checks the packed scan against the
// per-m-mer oracle at every k from 1 to MaxK, and that a k-mer and its
// reverse complement share their minimizer.
func TestMinimizerMatchesStringOracle(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for k := 1; k <= MaxK; k++ {
		for trial := 0; trial < 20; trial++ {
			s := randomSeq(r, k)
			km := MustKmer(s)
			if got, want := km.Minimizer(), minimizerOf(s); got != want {
				t.Fatalf("k=%d %s: Minimizer() = %#x, want %#x", k, s, got, want)
			}
			if km.Minimizer() != km.ReverseComplement().Minimizer() {
				t.Fatalf("k=%d %s: minimizer differs from its reverse complement's", k, s)
			}
		}
	}
}

// TestMinimizerSpreadsPolyA checks that the all-A m-mer does not rank
// first: without the salt, mix64(0) = 0 would make it the minimizer of every
// k-mer holding it and send them all to one owner.
func TestMinimizerSpreadsPolyA(t *testing.T) {
	all := MustKmer(strings.Repeat("A", MinimizerLen))
	polyA := merRank(all.Lo, all.ReverseComplement().Lo)
	if got := MustKmer(strings.Repeat("A", 31)).Minimizer(); got != polyA {
		t.Fatalf("poly-A 31-mer minimizer %#x, want its one m-mer's rank %#x", got, polyA)
	}
	r := rand.New(rand.NewSource(10))
	below := 0
	const n = 2000
	for i := 0; i < n; i++ {
		f := MustKmer(randomSeq(r, MinimizerLen))
		if merRank(f.Lo, f.ReverseComplement().Lo) < polyA {
			below++
		}
	}
	if below < n/100 {
		t.Errorf("only %d of %d random m-mers rank below poly-A", below, n)
	}
}

func BenchmarkMinimizers(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	s := []byte(randomSeq(r, 2000))
	var dst []uint64
	for b.Loop() {
		dst = Minimizers(dst, s, 31)
	}
}
