package seq

import (
	"math/rand"
	"testing"
)

// code returns the 2-bit code of base i of p, read through WordAt.
func code(p Packed, i int) byte { return byte(p.WordAt(i)) & 3 }

// unpack returns p's bases as ASCII, read one word at a time through WordAt.
func unpack(p Packed) []byte {
	out := make([]byte, 0, p.n)
	for off := 0; off < p.n; off += 32 {
		w := p.WordAt(off)
		for i := off; i < min(off+32, p.n); i++ {
			out = append(out, BaseToChar(byte(w)))
			w >>= 2
		}
	}
	return out
}

// naiveMismatchCount is the per-base reference MismatchCount is checked
// against: compare codes one position at a time.
func naiveMismatchCount(a, b Packed, aOff, bOff, n int) int {
	mm := 0
	for i := 0; i < n; i++ {
		if code(a, aOff+i) != code(b, bOff+i) {
			mm++
		}
	}
	return mm
}

func TestPackedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 63, 64, 65, 100, 257, 1000} {
		s := []byte(randomSeq(r, n))
		p, ok := PackASCII(s)
		if !ok {
			t.Fatalf("n=%d: PackASCII refused a pure-ACGT sequence", n)
		}
		if p.n != n {
			t.Fatalf("n=%d: length %d", n, p.n)
		}
		if got := string(unpack(p)); got != string(s) {
			t.Fatalf("n=%d: round trip mismatch\n got %s\nwant %s", n, got, s)
		}
		for i := 0; i < n; i++ {
			want, _ := CharToBase(s[i])
			if code(p, i) != want {
				t.Fatalf("n=%d: code %d = %d, want %d", n, i, code(p, i), want)
			}
		}
	}
}

func TestPackedRejectsAmbiguousAndLowercase(t *testing.T) {
	for _, bad := range []string{"ACGN", "acgt", "ACGTa", "AC GT", "ACG\x00"} {
		if _, ok := PackASCII([]byte(bad)); ok {
			t.Errorf("PackASCII(%q) accepted a non-strict sequence", bad)
		}
		var p Packed
		p.SetASCII([]byte("ACGT")) // pre-populate, then fail: must leave p empty
		if p.SetASCII([]byte(bad)) || p.n != 0 || len(p.w) != 0 {
			t.Errorf("SetASCII(%q) = ok or left residue (len %d, %d words)", bad, p.n, len(p.w))
		}
	}
}

func TestPackedReverseComplementMatchesASCII(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var rc Packed
	for _, n := range []int{1, 5, 31, 32, 33, 64, 65, 100, 321} {
		s := []byte(randomSeq(r, n))
		p, _ := PackASCII(s)
		rc.SetReverseComplementOf(p)
		want := string(ReverseComplement(s))
		if got := string(unpack(rc)); got != want {
			t.Fatalf("n=%d: packed RC\n got %s\nwant %s", n, got, want)
		}
		// The retained buffer must not leak stale bits into a shorter RC.
		short, _ := PackASCII(s[:n/2+1])
		rc.SetReverseComplementOf(short)
		want = string(ReverseComplement(s[:n/2+1]))
		if got := string(unpack(rc)); got != want {
			t.Fatalf("n=%d: reused-buffer RC\n got %s\nwant %s", n, got, want)
		}
	}
}

func TestPackedWordAt(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	s := []byte(randomSeq(r, 200))
	p, _ := PackASCII(s)
	// WordAt reads 32 bases from any offset, aligned or not.
	for i := 0; i < 100; i++ {
		lo := r.Intn(len(s))
		want, _ := PackASCII(s[lo:min(lo+32, len(s))])
		if got := p.WordAt(lo); got != want.WordAt(0) {
			t.Fatalf("WordAt(%d) = %#x, want %#x", lo, got, want.WordAt(0))
		}
	}
	// WordAt must zero-pad past the end.
	tail, _ := PackASCII([]byte("ACG"))
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
		a, _ := PackASCII([]byte(randomSeq(r, 1+r.Intn(300))))
		b, _ := PackASCII([]byte(randomSeq(r, 1+r.Intn(300))))
		aOff := r.Intn(a.n)
		bOff := r.Intn(b.n)
		maxN := min(a.n-aOff, b.n-bOff)
		n := r.Intn(maxN + 1)
		got := MismatchCount(a, b, aOff, bOff, n)
		want := naiveMismatchCount(a, b, aOff, bOff, n)
		if got != want {
			t.Fatalf("MismatchCount(aOff=%d, bOff=%d, n=%d) = %d, want %d",
				aOff, bOff, n, got, want)
		}
	}
}

// FuzzPackedRoundTrip drives the three packed invariants with random
// sequences and offsets: pack→unpack is the identity, the packed reverse
// complement matches the ASCII ReverseComplement, and MismatchCount matches
// the naive per-base count at arbitrary offsets and lengths.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add([]byte("ACGTTGCAAGCTTACG"), []byte("GGATCCGTAAACTGGTCC"), uint16(0), uint16(0), uint16(8))
	f.Add([]byte("A"), []byte("T"), uint16(0), uint16(0), uint16(1))
	f.Add([]byte("ACGTACGTACGTACGTACGTACGTACGTACGTA"), []byte("TTTT"), uint16(3), uint16(1), uint16(2))
	f.Fuzz(func(t *testing.T, sa, sb []byte, aOff, bOff, n uint16) {
		// Map arbitrary bytes onto ACGT so every input exercises the packed
		// paths instead of being rejected at the door.
		for i := range sa {
			sa[i] = BaseToChar(sa[i] & 3)
		}
		for i := range sb {
			sb[i] = BaseToChar(sb[i] & 3)
		}
		a, ok := PackASCII(sa)
		if !ok {
			t.Fatal("PackASCII refused a sanitized sequence")
		}
		if got := string(unpack(a)); got != string(sa) {
			t.Fatalf("round trip: got %s, want %s", got, sa)
		}
		var rc Packed
		rc.SetReverseComplementOf(a)
		if got, want := string(unpack(rc)), string(ReverseComplement(sa)); got != want {
			t.Fatalf("reverse complement: got %s, want %s", got, want)
		}
		b, _ := PackASCII(sb)
		if a.n == 0 || b.n == 0 {
			return
		}
		ao := int(aOff) % a.n
		bo := int(bOff) % b.n
		nn := int(n) % (min(a.n-ao, b.n-bo) + 1)
		got := MismatchCount(a, b, ao, bo, nn)
		if want := naiveMismatchCount(a, b, ao, bo, nn); got != want {
			t.Fatalf("MismatchCount(%d, %d, %d) = %d, want %d", ao, bo, nn, got, want)
		}
	})
}

// BenchmarkMismatchCount measures the word-at-a-time comparison against the
// per-base loop on a 100-base window, the typical read length of the extend
// kernel.
func BenchmarkMismatchCount(b *testing.B) {
	r := rand.New(rand.NewSource(16))
	a1, _ := PackASCII([]byte(randomSeq(r, 2000)))
	a2, _ := PackASCII([]byte(randomSeq(r, 2000)))
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MismatchCount(a1, a2, i%1000, (i*7)%1000, 100)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			naiveMismatchCount(a1, a2, i%1000, (i*7)%1000, 100)
		}
	})
}
