package kmeranalysis

import (
	"math/rand"
	"testing"

	"mhmgo/internal/seq"
)

// randRead builds a read with occasional ambiguous bases and a quality
// string spanning the phred range around the default threshold.
func randRead(r *rand.Rand, n int, withN bool) seq.Read {
	s := make([]byte, n)
	q := make([]byte, n)
	for i := range s {
		s[i] = seq.BaseToChar(byte(r.Intn(4)))
		q[i] = byte(33 + r.Intn(40))
	}
	if withN && n > 0 {
		s[r.Intn(n)] = 'N'
	}
	return seq.Read{ID: "kernel", Seq: s, Qual: q}
}

// appendObservationsByteLoop is the oracle and baseline of AppendObservations:
// the seq.CanonicalKmers walk of each read and an ASCII decode per neighbour
// lookup, independent of cutSupermers.
func appendObservationsByteLoop(dst []Observation, read seq.Read, opts Options) []Observation {
	k := opts.K
	if len(read.Seq) < k {
		return dst
	}
	out := dst
	for canon, at := range seq.CanonicalKmers(read.Seq, k) {
		o := Observation{Kmer: canon, WasRC: at.RC}
		off := at.Off
		if off > 0 {
			if code, valid := seq.CharToBase(read.Seq[off-1]); valid && qualOK(read, off-1) {
				o.Left = code
				o.HasLeft = true
			}
		}
		if off+k < len(read.Seq) {
			if code, valid := seq.CharToBase(read.Seq[off+k]); valid && qualOK(read, off+k) {
				o.Right = code
				o.HasRight = true
			}
		}
		out = append(out, o)
	}
	return out
}

// TestAppendObservationsMatchesByteLoop drives the supermer extraction
// (reads cut into supermers, each decoded as its owner decodes it) and the
// historical byte-loop extraction over random reads — including reads with
// ambiguous bases, reads shorter than k, and reads without quality strings —
// and requires identical observation streams.
func TestAppendObservationsMatchesByteLoop(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	var codes []byte
	for trial := 0; trial < 1500; trial++ {
		opts := DefaultOptions(11 + r.Intn(40))
		read := randRead(r, r.Intn(220), trial%3 == 0)
		if trial%5 == 0 {
			read.Qual = nil
		}
		var got []Observation
		got, codes = AppendObservations(got, codes, read, opts)
		want := appendObservationsByteLoop(nil, read, opts)
		if len(got) != len(want) {
			t.Fatalf("trial %d (k=%d, len=%d): %d observations, want %d",
				trial, opts.K, len(read.Seq), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (k=%d): observation %d = %+v, want %+v",
					trial, opts.K, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkKernelKmerExtract measures observation extraction for one
// 150-base read per op. The packed variant (supermers cut and decoded, the
// pipeline's path) reuses the caller's observation and codes buffers and
// must be allocation-free once warm; the perkmer variant is the per-k-mer
// rolling extraction it replaced; the byte-loop baseline walks each read
// with seq.CanonicalKmers and re-decodes every neighbour base from ASCII.
func BenchmarkKernelKmerExtract(b *testing.B) {
	r := rand.New(rand.NewSource(62))
	read := randRead(r, 150, false)
	opts := DefaultOptions(21)
	b.Run("packed", func(b *testing.B) {
		var dst []Observation
		var codes []byte
		dst, codes = AppendObservations(dst, codes, read, opts) // warm the buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst, codes = AppendObservations(dst[:0], codes, read, opts)
		}
		b.StopTimer()
		allocs := testing.AllocsPerRun(100, func() {
			dst, codes = AppendObservations(dst[:0], codes, read, opts)
		})
		if allocs != 0 {
			b.Fatalf("supermer extraction with warm buffers: %v allocs/op, want 0", allocs)
		}
	})
	b.Run("perkmer", func(b *testing.B) {
		var dst []Observation
		var codes []byte
		dst, codes = refObservations(dst, codes, read, opts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst, codes = refObservations(dst[:0], codes, read, opts)
		}
	})
	b.Run("ascii", func(b *testing.B) {
		var dst []Observation
		dst = appendObservationsByteLoop(dst, read, opts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = appendObservationsByteLoop(dst[:0], read, opts)
		}
	})
}
