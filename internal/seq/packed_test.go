package seq

import (
	"math/rand"
	"testing"
)

// code returns the 2-bit code of base i of p, read through WordAt.
func code(p Packed, i int) byte { return byte(p.WordAt(i)) & 3 }

// ambiguous reports whether base i of p is marked in its ambiguity mask.
func ambiguous(p Packed, i int) bool { return WordAt(p.amb, i)&1 == 1 }

// unpack returns p's bases as ASCII, an ambiguous base as N, read one word
// at a time through WordAt.
func unpack(p Packed) string {
	out := make([]byte, 0, p.n)
	for off := 0; off < p.n; off += 32 {
		w, amb := p.WordAt(off), WordAt(p.amb, off)
		for i := off; i < min(off+32, p.n); i++ {
			c := BaseToChar(byte(w))
			if amb&1 == 1 {
				c = 'N'
			}
			out = append(out, c)
			w, amb = w>>2, amb>>2
		}
	}
	return string(out)
}

// spell returns s as the one base rule reads it: each base CharToBase
// accepts in upper case, every other byte as N.
func spell(s []byte) string {
	out := make([]byte, len(s))
	for i, c := range s {
		out[i] = 'N'
		if code, ok := CharToBase(c); ok {
			out[i] = BaseToChar(code)
		}
	}
	return string(out)
}

// naiveMismatchCount is the per-base reference MismatchCount is checked
// against, on the ASCII bytes: two bytes match iff both decode through
// CharToBase to the same code.
func naiveMismatchCount(a, b []byte, aOff, bOff, n int) int {
	mm := 0
	for i := 0; i < n; i++ {
		ca, okA := CharToBase(a[aOff+i])
		cb, okB := CharToBase(b[bOff+i])
		if !okA || !okB || ca != cb {
			mm++
		}
	}
	return mm
}

func TestPackedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 63, 64, 65, 100, 257, 1000} {
		s := []byte(randomSeq(r, n))
		p := PackASCII(s)
		if p.n != n || len(p.amb) != 0 {
			t.Fatalf("n=%d: length %d, %d mask words", n, p.n, len(p.amb))
		}
		if got := unpack(p); got != string(s) {
			t.Fatalf("n=%d: round trip mismatch\n got %s\nwant %s", n, got, s)
		}
		m := messySeq(r, n)
		if got := unpack(PackASCII(m)); got != spell(m) {
			t.Fatalf("n=%d: round trip of %q\n got %s\nwant %s", n, m, got, spell(m))
		}
	}
}

func TestPackedAmbiguityMask(t *testing.T) {
	// Lower case packs as its base, and sets no mask.
	if p := PackASCII([]byte("acgtACGT")); unpack(p) != "ACGTACGT" || len(p.amb) != 0 {
		t.Errorf("PackASCII(acgtACGT) = %s with %d mask words, want ACGTACGT and none", unpack(p), len(p.amb))
	}
	// N, IUPAC codes and every other byte are ambiguous and pack as code 0,
	// in either word of a two-word sequence.
	for _, c := range []byte("NnRYKMSWBDHVrykmswbdhvU-. \x00\xff") {
		s := []byte("ACGTTGCAACGTTGCAACGTTGCAACGTTGCATTGT")
		at := int(c) % len(s)
		s[at] = c
		p := PackASCII(s)
		for i := range s {
			if ambiguous(p, i) != (i == at) {
				t.Fatalf("byte %q at %d: base %d ambiguous=%v", c, at, i, ambiguous(p, i))
			}
		}
		if code(p, at) != 0 {
			t.Errorf("byte %q packed as code %d, want 0", c, code(p, at))
		}
		// An ambiguous base matches nothing, itself included.
		if mm := MismatchCount(&p, &p, 0, 0, len(s)); mm != 1 {
			t.Errorf("byte %q: sequence against itself has %d mismatches, want 1", c, mm)
		}
	}
	// Repacking a buffer clears the old mask.
	var p Packed
	p.SetASCII([]byte("NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN"))
	p.SetASCII([]byte("ACGT"))
	if unpack(p) != "ACGT" || len(p.amb) != 0 {
		t.Errorf("repacked ACGT = %s with %d mask words", unpack(p), len(p.amb))
	}
}

func TestPackedReverseComplementMatchesASCII(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var rc Packed
	for _, n := range []int{1, 5, 31, 32, 33, 64, 65, 100, 321} {
		s := messySeq(r, n)
		s[n-1] = 'N' // so the shorter prefix below may carry no mask at all
		rc.SetReverseComplementOf(PackASCII(s))
		if got, want := unpack(rc), string(ReverseComplement(s)); got != want {
			t.Fatalf("n=%d: packed RC\n got %s\nwant %s", n, got, want)
		}
		// The retained buffers must not leak stale bases or ambiguity into a
		// shorter RC.
		short := s[:n/2+1]
		rc.SetReverseComplementOf(PackASCII(short))
		if got, want := unpack(rc), string(ReverseComplement(short)); got != want {
			t.Fatalf("n=%d: reused-buffer RC\n got %s\nwant %s", n, got, want)
		}
	}
}

func TestPackedWordAt(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	s := []byte(randomSeq(r, 200))
	p := PackASCII(s)
	// WordAt reads 32 bases from any offset, aligned or not.
	for i := 0; i < 100; i++ {
		lo := r.Intn(len(s))
		want := PackASCII(s[lo:min(lo+32, len(s))])
		if got := p.WordAt(lo); got != want.WordAt(0) {
			t.Fatalf("WordAt(%d) = %#x, want %#x", lo, got, want.WordAt(0))
		}
	}
	// WordAt must zero-pad past the end.
	tail := PackASCII([]byte("ACG"))
	if got := tail.WordAt(0) &^ lowBaseMask(3); got != 0 {
		t.Errorf("WordAt past-the-end bits = %#x, want 0", got)
	}
	if got := tail.WordAt(64); got != 0 {
		t.Errorf("WordAt(64) on a 3-base sequence = %#x, want 0", got)
	}
}

func TestMismatchCountMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		sa, sb := []byte(randomSeq(r, 1+r.Intn(300))), messySeq(r, 1+r.Intn(300))
		if trial%2 == 0 {
			sa = messySeq(r, len(sa))
		}
		a, b := PackASCII(sa), PackASCII(sb)
		aOff := r.Intn(a.n)
		bOff := r.Intn(b.n)
		maxN := min(a.n-aOff, b.n-bOff)
		n := r.Intn(maxN + 1)
		got := MismatchCount(&a, &b, aOff, bOff, n)
		want := naiveMismatchCount(sa, sb, aOff, bOff, n)
		if got != want {
			t.Fatalf("MismatchCount(aOff=%d, bOff=%d, n=%d) = %d, want %d",
				aOff, bOff, n, got, want)
		}
	}
}

// FuzzPackedRoundTrip drives the packed invariants with arbitrary bytes and
// offsets: every base CharToBase accepts round-trips and every other byte is
// ambiguous, the packed reverse complement matches the ASCII
// ReverseComplement (ambiguity included), and MismatchCount matches the
// per-base CharToBase counter at arbitrary offsets and lengths, on either
// strand of a.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add([]byte("ACGTTGCAAGCTTACG"), []byte("GGATCCGTAAACTGGTCC"), uint16(0), uint16(0), uint16(8))
	f.Add([]byte("A"), []byte("T"), uint16(0), uint16(0), uint16(1))
	f.Add([]byte("ACGTACGTACGTACGTACGTACGTACGTACGTA"), []byte("TTTT"), uint16(3), uint16(1), uint16(2))
	f.Add([]byte("acgtNNNNRYacgtACGTACGTACGTACGTACGTAC"), []byte("ACGTNNNN-.acgt"), uint16(2), uint16(1), uint16(9))
	f.Fuzz(func(t *testing.T, sa, sb []byte, aOff, bOff, n uint16) {
		a := PackASCII(sa)
		if got, want := unpack(a), spell(sa); got != want {
			t.Fatalf("round trip: got %s, want %s", got, want)
		}
		var rc Packed
		rc.SetReverseComplementOf(a)
		rcBytes := ReverseComplement(sa)
		if got := unpack(rc); got != string(rcBytes) {
			t.Fatalf("reverse complement: got %s, want %s", got, rcBytes)
		}
		b := PackASCII(sb)
		if a.n == 0 || b.n == 0 {
			return
		}
		ao := int(aOff) % a.n
		bo := int(bOff) % b.n
		nn := int(n) % (min(a.n-ao, b.n-bo) + 1)
		if got, want := MismatchCount(&a, &b, ao, bo, nn), naiveMismatchCount(sa, sb, ao, bo, nn); got != want {
			t.Fatalf("MismatchCount(%d, %d, %d) = %d, want %d", ao, bo, nn, got, want)
		}
		if got, want := MismatchCount(&rc, &b, ao, bo, nn), naiveMismatchCount(rcBytes, sb, ao, bo, nn); got != want {
			t.Fatalf("reverse complement: MismatchCount(%d, %d, %d) = %d, want %d", ao, bo, nn, got, want)
		}
	})
}

// BenchmarkMismatchCount measures the word-at-a-time comparison against the
// per-base loop on a 100-base all-ACGT window, the typical read length of
// the extend kernel.
func BenchmarkMismatchCount(b *testing.B) {
	r := rand.New(rand.NewSource(16))
	s1, s2 := []byte(randomSeq(r, 2000)), []byte(randomSeq(r, 2000))
	a1, a2 := PackASCII(s1), PackASCII(s2)
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MismatchCount(&a1, &a2, i%1000, (i*7)%1000, 100)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			naiveMismatchCount(s1, s2, i%1000, (i*7)%1000, 100)
		}
	})
}
