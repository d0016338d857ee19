package seq

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randomSeq returns a random ACGT string of length n using r.
func randomSeq(r *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(BaseToChar(byte(r.Intn(4))))
	}
	return b.String()
}

func TestKmerFromStringRoundTrip(t *testing.T) {
	cases := []string{
		"A", "C", "G", "T",
		"ACGT",
		"AAAAAAAAAA",
		"ACGTACGTACGTACGTACGTACGTACGTACGT",  // 32
		"ACGTACGTACGTACGTACGTACGTACGTACGTA", // 33
		"TTTTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTCCC", // 64
	}
	for _, s := range cases {
		km, err := KmerFromString(s)
		if err != nil {
			t.Fatalf("KmerFromString(%q): %v", s, err)
		}
		if got := km.String(); got != s {
			t.Errorf("round trip of %q = %q", s, got)
		}
		if int(km.K) != len(s) {
			t.Errorf("K = %d, want %d", km.K, len(s))
		}
	}
}

func TestKmerFromBytesErrors(t *testing.T) {
	if _, err := KmerFromBytes([]byte("ACGT"), 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := KmerFromBytes([]byte("ACGT"), 65); err == nil {
		t.Error("k=65 should fail")
	}
	if _, err := KmerFromBytes([]byte("ACG"), 4); err == nil {
		t.Error("short sequence should fail")
	}
	if _, err := KmerFromBytes([]byte("ACNT"), 4); err == nil {
		t.Error("ambiguous base should fail")
	}
}

func TestKmerBaseAt(t *testing.T) {
	s := "ACGTTGCAACGTTGCAACGTTGCAACGTTGCAACGTT" // 37 bases, crosses the 32 boundary
	km := MustKmer(s)
	for i := 0; i < len(s); i++ {
		want, _ := CharToBase(s[i])
		if got := km.BaseAt(i); got != want {
			t.Errorf("BaseAt(%d) = %d, want %d", i, got, want)
		}
	}
	if km.FirstBase() != BaseA {
		t.Errorf("FirstBase = %d, want A", km.FirstBase())
	}
}

func TestKmerAppendPrepend(t *testing.T) {
	km := MustKmer("ACGTA")
	next := km.AppendBase(BaseC)
	if got := next.String(); got != "CGTAC" {
		t.Errorf("AppendBase = %q, want CGTAC", got)
	}
	prev := km.PrependBase(BaseT)
	if got := prev.String(); got != "TACGT" {
		t.Errorf("PrependBase = %q, want TACGT", got)
	}
}

func TestKmerAppendPrependLong(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		k := 33 + r.Intn(32)
		s := randomSeq(r, k)
		km := MustKmer(s)
		b := byte(r.Intn(4))
		next := km.AppendBase(b)
		want := s[1:] + string(BaseToChar(b))
		if next.String() != want {
			t.Fatalf("k=%d AppendBase: got %q want %q", k, next.String(), want)
		}
		prev := km.PrependBase(b)
		want = string(BaseToChar(b)) + s[:k-1]
		if prev.String() != want {
			t.Fatalf("k=%d PrependBase: got %q want %q", k, prev.String(), want)
		}
	}
}

func TestKmerReverseComplementKnown(t *testing.T) {
	cases := map[string]string{
		"A":     "T",
		"ACGT":  "ACGT",
		"AACC":  "GGTT",
		"GATTA": "TAATC",
	}
	for in, want := range cases {
		if got := MustKmer(in).ReverseComplement().String(); got != want {
			t.Errorf("revcomp(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestKmerReverseComplementInvolution(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw)%MaxK + 1
		rr := rand.New(rand.NewSource(seed))
		_ = r
		s := randomSeq(rr, k)
		km := MustKmer(s)
		return km.ReverseComplement().ReverseComplement() == km
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKmerReverseComplementMatchesStringVersion(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw)%MaxK + 1
		rr := rand.New(rand.NewSource(seed))
		s := randomSeq(rr, k)
		km := MustKmer(s)
		return km.ReverseComplement().String() == string(ReverseComplement([]byte(s)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestKmerReverseComplementPerBase checks the word-wise reverse complement
// against the definition, one base at a time (rc[i] = 3 - km[k-1-i]), for
// every k the packed representation supports.
func TestKmerReverseComplementPerBase(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for k := 1; k <= MaxK; k++ {
		for trial := 0; trial < 50; trial++ {
			km := MustKmer(randomSeq(r, k))
			want := Kmer{K: km.K}
			for i := k - 1; i >= 0; i-- {
				want = want.AppendBase(ComplementCode(km.BaseAt(i)))
			}
			if got := km.ReverseComplement(); got != want {
				t.Fatalf("k=%d: ReverseComplement(%s) = %s (%x:%x), want %s (%x:%x)",
					k, km, got, got.Hi, got.Lo, want, want.Hi, want.Lo)
			}
		}
	}
}

func TestKmerCanonicalInvariant(t *testing.T) {
	// A k-mer and its reverse complement must canonicalize to the same value.
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw)%MaxK + 1
		rr := rand.New(rand.NewSource(seed))
		s := randomSeq(rr, k)
		km := MustKmer(s)
		c1, _ := km.Canonical()
		c2, _ := km.ReverseComplement().Canonical()
		if c1 != c2 {
			return false
		}
		// Canonicalizing is idempotent.
		if again, flipped := c1.Canonical(); again != c1 || flipped {
			return false
		}
		// The canonical form is never greater than either orientation.
		return !km.Less(c1) || km == c1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKmerHashDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	buckets := make([]int, 16)
	const n = 4096
	for i := 0; i < n; i++ {
		km := MustKmer(randomSeq(r, 21))
		buckets[km.Hash()%16]++
	}
	for i, c := range buckets {
		if c < n/32 || c > n/8 {
			t.Errorf("bucket %d has %d of %d entries; hash is badly skewed", i, c, n)
		}
	}
}

// kmersOf collects what a KmerIter yields over s: all valid k-mers in order
// of appearance.
func kmersOf(s []byte, k int) []Kmer {
	var out []Kmer
	it := NewKmerIter(s, k)
	for km, _, ok := it.Next(); ok; km, _, ok = it.Next() {
		out = append(out, km)
	}
	return out
}

func TestKmersOf(t *testing.T) {
	s := []byte("ACGTACGT")
	kms := kmersOf(s, 4)
	want := []string{"ACGT", "CGTA", "GTAC", "TACG", "ACGT"}
	if len(kms) != len(want) {
		t.Fatalf("got %d k-mers, want %d", len(kms), len(want))
	}
	for i, km := range kms {
		if km.String() != want[i] {
			t.Errorf("kmer %d = %q, want %q", i, km.String(), want[i])
		}
	}
}

func TestKmersOfSkipsAmbiguous(t *testing.T) {
	s := []byte("ACGTNACGT")
	kms := kmersOf(s, 4)
	// Only windows entirely before or after the N are valid.
	if len(kms) != 2 {
		t.Fatalf("got %d k-mers, want 2 (windows containing N must be skipped)", len(kms))
	}
	for _, km := range kms {
		if km.String() != "ACGT" {
			t.Errorf("unexpected k-mer %q", km.String())
		}
	}
}

func TestKmerIterOffsets(t *testing.T) {
	s := []byte("AACCGGTT")
	it := NewKmerIter(s, 3)
	offsets := []int{}
	for {
		km, off, ok := it.Next()
		if !ok {
			break
		}
		if km.String() != string(s[off:off+3]) {
			t.Errorf("kmer at offset %d = %q, want %q", off, km.String(), s[off:off+3])
		}
		offsets = append(offsets, off)
	}
	if len(offsets) != 6 {
		t.Fatalf("got %d k-mers, want 6", len(offsets))
	}
	for i, off := range offsets {
		if off != i {
			t.Errorf("offset %d = %d, want %d", i, off, i)
		}
	}
}

func TestCanonicalKmersOf(t *testing.T) {
	kms := kmersOf([]byte("ACGTAC"), 3)
	if len(kms) != 4 {
		t.Fatalf("got %d k-mers, want 4", len(kms))
	}
	for _, km := range kms {
		canon, flipped := km.Canonical()
		if rc := canon.ReverseComplement(); rc.Less(canon) {
			t.Errorf("Canonical(%q) = %q is not canonical", km, canon)
		}
		if want := km.ReverseComplement(); flipped && canon != want || !flipped && canon != km {
			t.Errorf("Canonical(%q) = %q, flipped=%v", km, canon, flipped)
		}
	}
}

func TestKmersOfEdgeCases(t *testing.T) {
	if got := kmersOf([]byte("AC"), 3); got != nil {
		t.Errorf("sequence shorter than k should yield nothing, got %v", got)
	}
	if got := kmersOf([]byte("NNNN"), 3); got != nil {
		t.Errorf("all-ambiguous sequence should yield nothing, got %v", got)
	}
	if got := kmersOf([]byte("ACG"), 3); len(got) != 1 || got[0].String() != "ACG" {
		t.Errorf("sequence of exactly k bases should yield itself, got %v", got)
	}
}

func BenchmarkKmerIter(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	s := []byte(randomSeq(r, 10000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := NewKmerIter(s, 31)
		for {
			_, _, ok := it.Next()
			if !ok {
				break
			}
		}
	}
}

func BenchmarkKmerCanonical(b *testing.B) {
	km := MustKmer("ACGTTGCAACGTTGCAACGTTGCAACGTTGA")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		km.Canonical()
	}
}
