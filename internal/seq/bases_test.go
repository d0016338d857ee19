package seq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCharToBaseRoundTrip(t *testing.T) {
	for code := byte(0); code < 4; code++ {
		c := BaseToChar(code)
		got, ok := CharToBase(c)
		if !ok || got != code {
			t.Errorf("CharToBase(BaseToChar(%d)) = %d,%v", code, got, ok)
		}
	}
	lower := []byte{'a', 'c', 'g', 't'}
	for i, c := range lower {
		got, ok := CharToBase(c)
		if !ok || got != byte(i) {
			t.Errorf("CharToBase(%q) = %d,%v, want %d,true", c, got, ok, i)
		}
	}
	if _, ok := CharToBase('N'); ok {
		t.Error("N should not be a valid base")
	}
	if _, ok := CharToBase('x'); ok {
		t.Error("x should not be a valid base")
	}
}

func TestComplement(t *testing.T) {
	pairs := map[byte]byte{'A': 'T', 'C': 'G', 'G': 'C', 'T': 'A', 'N': 'N'}
	for in, want := range pairs {
		if got := ComplementChar(in); got != want {
			t.Errorf("ComplementChar(%q) = %q, want %q", in, got, want)
		}
	}
	for code := byte(0); code < 4; code++ {
		if ComplementCode(ComplementCode(code)) != code {
			t.Errorf("complement is not an involution for code %d", code)
		}
	}
}

func TestReverseComplement(t *testing.T) {
	cases := map[string]string{
		"":       "",
		"A":      "T",
		"ACGT":   "ACGT",
		"AAACCC": "GGGTTT",
		"ACGNT":  "ANCGT",
		"acgR":   "NCGT",
	}
	for in, want := range cases {
		if got := string(ReverseComplement([]byte(in))); got != want {
			t.Errorf("ReverseComplement(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAppendReverseComplement(t *testing.T) {
	if got := string(AppendReverseComplement([]byte("xy"), []byte("AACGN"))); got != "xyNCGTT" {
		t.Fatalf("AppendReverseComplement = %s, want xyNCGTT", got)
	}
	s := []byte("ACGTNACGT")
	buf := make([]byte, 0, 32)
	buf = AppendReverseComplement(buf[:0], s)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendReverseComplement(buf[:0], s)
	})
	if allocs != 0 {
		t.Errorf("AppendReverseComplement with warm buffer: %v allocs/op, want 0", allocs)
	}
}

// TestGreaterThanRC holds GreaterThanRC to its definition, the string
// comparison with the materialized reverse complement: on every string of up
// to four bases over an alphabet with N, an IUPAC code and lower case
// (palindromes and the empty string among them), then on random ones.
func TestGreaterThanRC(t *testing.T) {
	const alphabet = "ACGTNRat"
	check := func(s []byte) {
		t.Helper()
		if got, want := GreaterThanRC(s), string(s) > string(ReverseComplement(s)); got != want {
			t.Fatalf("GreaterThanRC(%q) = %v, want %v", s, got, want)
		}
	}
	var all func(s []byte)
	all = func(s []byte) {
		check(s)
		if len(s) == 4 {
			return
		}
		for i := range alphabet {
			all(append(s, alphabet[i]))
		}
	}
	all(nil)
	for _, s := range []string{"ACGT", "GAATTC", "AATT", "NN", "acgt", "TTAA"} {
		check([]byte(s))
	}
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		s := make([]byte, r.Intn(80))
		for j := range s {
			s[j] = alphabet[r.Intn(4+4*(i&1))]
		}
		check(s)
		// An ACGT sequence followed by its reverse complement is a
		// palindrome, which does not sort after its complement.
		check(append(s, ReverseComplement(s)...))
	}
}

func TestReverseComplementInvolutionProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 200
		s := []byte(randomSeq(r, n))
		return string(ReverseComplement(ReverseComplement(s))) == string(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReadValidate(t *testing.T) {
	r := Read{ID: "r1", Seq: []byte("ACGT"), Qual: []byte("IIII")}
	if err := r.Validate(); err != nil {
		t.Errorf("valid read rejected: %v", err)
	}
	bad := Read{ID: "r2", Seq: []byte("ACGT"), Qual: []byte("II")}
	if err := bad.Validate(); err == nil {
		t.Error("mismatched quality length should be rejected")
	}
	empty := Read{ID: "r3"}
	if err := empty.Validate(); err == nil {
		t.Error("empty read should be rejected")
	}
}

func TestMeanDepthFromCounts(t *testing.T) {
	if got := MeanDepthFromCounts(nil); got != 0 {
		t.Errorf("mean of empty = %v", got)
	}
	if got := MeanDepthFromCounts([]uint32{2, 4, 6}); got != 4 {
		t.Errorf("mean = %v, want 4", got)
	}
}

func TestExtCountsClassify(t *testing.T) {
	var e ExtCounts
	if got := e.Classify(1, 2); got != ExtNone {
		t.Errorf("empty counts classify = %q, want X", got)
	}
	e.AddN(BaseA, 10)
	if got := e.Classify(1, 2); got != 'A' {
		t.Errorf("unique extension classify = %q, want A", got)
	}
	e.AddN(BaseC, 5)
	if got := e.Classify(1, 2); got != ExtFork {
		t.Errorf("contested extension classify = %q, want F", got)
	}
	// With a larger threshold the contradiction is tolerated.
	if got := e.Classify(1, 5); got != 'A' {
		t.Errorf("tolerant classify = %q, want A", got)
	}
	// Below the minimum count nothing is called.
	var weak ExtCounts
	weak.Add(BaseG)
	if got := weak.Classify(2, 2); got != ExtNone {
		t.Errorf("weak classify = %q, want X", got)
	}
}

func TestExtCountsBestAndMerge(t *testing.T) {
	var a, b ExtCounts
	a.AddN(BaseA, 3)
	a.AddN(BaseG, 1)
	b.AddN(BaseG, 4)
	a.Merge(b)
	code, best, second := a.Best()
	if code != BaseG || best != 5 || second != 3 {
		t.Errorf("Best = %d,%d,%d, want G,5,3", code, best, second)
	}
	if a.Total() != 8 {
		t.Errorf("Total = %d, want 8", a.Total())
	}
}

func TestExtPairSwap(t *testing.T) {
	p := ExtPair{Left: 'A', Right: 'G'}
	s := p.Swap()
	if s.Left != 'C' || s.Right != 'T' {
		t.Errorf("Swap = %v, want {C T}", s)
	}
	f := ExtPair{Left: ExtFork, Right: ExtNone}
	s = f.Swap()
	if s.Left != ExtNone || s.Right != ExtFork {
		t.Errorf("Swap of markers = %v, want {X F}", s)
	}
	if p.String() != "AG" {
		t.Errorf("String = %q", p.String())
	}
}

func TestKmerCountObserve(t *testing.T) {
	km := MustKmer("ACG")
	kc := KmerCount{Kmer: km}
	kc.Observe(BaseT, BaseA, true, true, false, 1)
	if kc.Count != 1 || kc.Left[BaseT] != 1 || kc.Right[BaseA] != 1 {
		t.Errorf("forward observe wrong: %+v", kc)
	}
	// Reverse-complement observation: neighbours swap sides and complement.
	kc.Observe(BaseT, BaseA, true, true, true, 1)
	if kc.Left[BaseT] != 2 || kc.Right[BaseA] != 2 {
		t.Errorf("rc observe wrong: %+v", kc)
	}
	// Missing neighbours are not recorded.
	kc.Observe(BaseC, BaseC, false, false, false, 1)
	if kc.Count != 3 || kc.Left.Total() != 2 || kc.Right.Total() != 2 {
		t.Errorf("missing-neighbour observe wrong: %+v", kc)
	}
	// A weighted observation counts n times, neighbours included, and the
	// orientation rule still applies: the left G of the reverse complement
	// is a right C of the canonical form.
	kc.Observe(BaseG, BaseA, true, false, true, 3)
	if kc.Count != 6 || kc.Left.Total() != 2 || kc.Right[BaseC] != 3 || kc.Right.Total() != 5 {
		t.Errorf("weighted observe wrong: %+v", kc)
	}
}

// TestIsBaseExt: an extension character is a base exactly when CharToBase
// decodes it, which is how the de Bruijn traversal tells a base extension
// from a fork or a dead end.
func TestIsBaseExt(t *testing.T) {
	for _, c := range []byte{'A', 'C', 'G', 'T'} {
		if _, ok := CharToBase(c); !ok {
			t.Errorf("CharToBase(%q) rejects a base extension", c)
		}
	}
	for _, c := range []byte{ExtFork, ExtNone, 'n'} {
		if _, ok := CharToBase(c); ok {
			t.Errorf("CharToBase(%q) accepts a non-base extension", c)
		}
	}
}
