package seq

import (
	"iter"
	"math/rand"
	"slices"
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

// TestKmerAppendBases checks AppendBases against the bytes a k-mer was
// packed from, at every length, appending after a prefix.
func TestKmerAppendBases(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for k := 1; k <= MaxK; k++ {
		s := []byte(randomSeq(r, k))
		km, err := KmerFromBytes(s, k)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(km.AppendBases([]byte(">"))); got != ">"+string(s) {
			t.Fatalf("k=%d: AppendBases = %s, want >%s", k, got, s)
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

// TestKmerAppendPrependLong checks both steps against the string oracle at
// every length, so also where a base enters or leaves a word edge: one
// base, a full low word, one base into the high word, and both words full.
func TestKmerAppendPrependLong(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8*MaxK; trial++ {
		k := trial%MaxK + 1
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

// kmersOf collects the k-mers CanonicalKmers yields over s, each turned
// back to the strand s holds, with their offsets: all valid k-mers in order
// of appearance.
func kmersOf(s []byte, k int) ([]Kmer, []int) {
	var kms []Kmer
	var offs []int
	for km, at := range CanonicalKmers(s, k) {
		if at.RC {
			km = km.ReverseComplement()
		}
		kms, offs = append(kms, km), append(offs, at.Off)
	}
	return kms, offs
}

func TestKmersOf(t *testing.T) {
	s := []byte("ACGTACGT")
	kms, _ := kmersOf(s, 4)
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
	kms, offs := kmersOf(s, 4)
	// Only windows entirely before or after the N are valid.
	if len(kms) != 2 || offs[0] != 0 || offs[1] != 5 {
		t.Fatalf("got %d k-mers at %v, want 2 at [0 5] (windows containing N must be skipped)", len(kms), offs)
	}
	for _, km := range kms {
		if km.String() != "ACGT" {
			t.Errorf("unexpected k-mer %q", km.String())
		}
	}
}

func TestCanonicalKmersOffsets(t *testing.T) {
	s := []byte("AACCGGTT")
	kms, offs := kmersOf(s, 3)
	if len(offs) != 6 {
		t.Fatalf("got %d k-mers, want 6", len(offs))
	}
	for i, off := range offs {
		if off != i {
			t.Errorf("offset %d = %d, want %d", i, off, i)
		}
		if kms[i].String() != string(s[off:off+3]) {
			t.Errorf("kmer at offset %d = %q, want %q", off, kms[i], s[off:off+3])
		}
	}
}

// walkKs are the k-mer lengths the walker and the window are checked at:
// both sides of the minimizer length and of the 32-base word boundary.
var walkKs = []int{1, 5, 10, 11, 12, 21, 31, 33, 63, 64}

// messySeq returns a random sequence of length n with runs of ambiguous
// bases and of lower-case bases.
func messySeq(r *rand.Rand, n int) []byte {
	s := []byte(randomSeq(r, n))
	for i := 0; i < n; i += 1 + r.Intn(40) {
		run := s[i:min(n, i+1+r.Intn(8))]
		switch r.Intn(3) {
		case 0:
			for j := range run {
				run[j] = "NnRx-"[r.Intn(5)]
			}
		case 1:
			for j := range run {
				run[j] |= 'a' - 'A' // lower case, idempotent
			}
		}
	}
	return s
}

// checkWalkAgainstBytes holds CanonicalKmers, MinimizerWindow and
// Minimizers over s to their per-key references at every position: the
// walker must yield exactly the windows KmerFromBytes packs, in order, as
// Kmer.Canonical picks their form, Minimizers must give Kmer.Minimizer of
// each k-mer at the offset the walker yields it, and the window must report
// Kmer.Minimizer of each k-mer ending at a base it is pushed.
func checkWalkAgainstBytes(t *testing.T, s []byte, k int) {
	t.Helper()
	next, stop := iter.Pull2(CanonicalKmers(s, k))
	defer stop()
	// A dirty buffer: Minimizers must overwrite or zero every element.
	mins := Minimizers(slices.Repeat([]uint64{42}, len(s)), s, k)
	if want := max(0, len(s)-k+1); len(mins) != want {
		t.Fatalf("k=%d %q: Minimizers returns %d values, want %d", k, s, len(mins), want)
	}
	for off := 0; off+k <= len(s); off++ {
		ref, err := KmerFromBytes(s[off:], k)
		if err != nil {
			if mins[off] != 0 {
				t.Fatalf("k=%d %q: Minimizers gives %#x at offset %d, whose k-mer is ambiguous", k, s, mins[off], off)
			}
			continue
		}
		want, wantRC := ref.Canonical()
		got, at, ok := next()
		if !ok || got != want || at != (KmerAt{Off: off, RC: wantRC}) {
			t.Fatalf("k=%d %q: walker yields %s %+v (%v), want %s rc=%v at %d", k, s, got, at, ok, want, wantRC, off)
		}
		if mins[at.Off] != got.Minimizer() {
			t.Fatalf("k=%d %q: Minimizers gives %#x at offset %d, want %#x", k, s, mins[at.Off], at.Off, got.Minimizer())
		}
	}
	if got, at, ok := next(); ok {
		t.Fatalf("k=%d %q: walker yields %s %+v past the last valid k-mer", k, s, got, at)
	}

	w := NewMinimizerWindow(k)
	for i, c := range s {
		code, valid := CharToBase(c)
		if !valid {
			w.Reset()
			continue
		}
		got, full := w.Push(code)
		ref, err := KmerFromBytes(s[max(0, i-k+1):], k)
		if full != (i >= k-1 && err == nil) {
			t.Fatalf("k=%d %q: window full=%v at base %d, KmerFromBytes err=%v", k, s, full, i, err)
		}
		if full && got != ref.Minimizer() {
			t.Fatalf("k=%d %q: window minimizer %#x at base %d, want %#x", k, s, got, i, ref.Minimizer())
		}
	}
}

// TestWalkMatchesBytes checks the walker and the window against their
// per-key references on random sequences with ambiguous and lower-case runs.
func TestWalkMatchesBytes(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, k := range walkKs {
		for trial := 0; trial < 30; trial++ {
			checkWalkAgainstBytes(t, messySeq(r, r.Intn(300)), k)
		}
	}
}

// FuzzWalk runs the same references on arbitrary bytes and k.
func FuzzWalk(f *testing.F) {
	f.Add([]byte("ACGTNACGTacgtAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), uint8(31))
	f.Add([]byte("GGATCCnnGTAAACTGGTCCAT"), uint8(4))
	f.Fuzz(func(t *testing.T, s []byte, k uint8) {
		checkWalkAgainstBytes(t, s, 1+int(k)%MaxK)
	})
}

func TestCanonicalKmersOf(t *testing.T) {
	kms, _ := kmersOf([]byte("ACGTAC"), 3)
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
	if got, _ := kmersOf([]byte("AC"), 3); got != nil {
		t.Errorf("sequence shorter than k should yield nothing, got %v", got)
	}
	if got, _ := kmersOf([]byte("NNNN"), 3); got != nil {
		t.Errorf("all-ambiguous sequence should yield nothing, got %v", got)
	}
	if got, _ := kmersOf([]byte("ACG"), 3); len(got) != 1 || got[0].String() != "ACG" {
		t.Errorf("sequence of exactly k bases should yield itself, got %v", got)
	}
}

func BenchmarkCanonicalKmers(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	s := []byte(randomSeq(r, 10000))
	for b.Loop() {
		for range CanonicalKmers(s, 31) {
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
