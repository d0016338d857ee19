package hmm

import (
	"math/rand"
	"testing"

	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

func randomSeq(r *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seq.BaseToChar(byte(r.Intn(4)))
	}
	return out
}

func TestProfileDetectsPlantedMarker(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	marker := randomSeq(r, 200)
	p := BuildProfile([][]byte{marker}, 0.9)
	if p.length != 200 {
		t.Fatalf("profile length %d", p.length)
	}

	// A contig containing the marker (with a few mutations) must be a hit.
	contig := append(randomSeq(r, 150), append(append([]byte(nil), marker...), randomSeq(r, 150)...)...)
	for i := 0; i < 6; i++ {
		contig[150+r.Intn(200)] = seq.BaseToChar(byte(r.Intn(4)))
	}
	hit := p.Scan(contig)
	if hit.Score < 0.5 {
		t.Errorf("marker-bearing contig scored %v", hit.Score)
	}
	if hit.Pos < 130 || hit.Pos > 170 {
		t.Errorf("hit position %d, expected near 150", hit.Pos)
	}
	if !p.IsHit(contig) {
		t.Error("IsHit should be true")
	}

	// A random contig must not be a hit.
	random := randomSeq(r, 500)
	if p.IsHit(random) {
		t.Errorf("random contig scored %v", p.Scan(random).Score)
	}
}

func TestProfileDetectsReverseComplementHit(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	marker := randomSeq(r, 150)
	p := BuildProfile([][]byte{marker}, 0.9)
	contig := append(randomSeq(r, 100), append(seq.ReverseComplement(marker), randomSeq(r, 100)...)...)
	hit := p.Scan(contig)
	if hit.Score < 0.5 {
		t.Fatalf("reverse-complement marker not detected: %v", hit.Score)
	}
	if !hit.Reverse {
		t.Error("hit should be flagged as reverse strand")
	}
}

func TestProfileFromMultipleExamples(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	consensus := randomSeq(r, 120)
	var examples [][]byte
	for i := 0; i < 5; i++ {
		ex := append([]byte(nil), consensus...)
		for j := 0; j < 5; j++ {
			ex[r.Intn(len(ex))] = seq.BaseToChar(byte(r.Intn(4)))
		}
		examples = append(examples, ex)
	}
	p := BuildProfile(examples, 0.9)
	if score := p.Scan(consensus).Score; score < 0.6 {
		t.Errorf("consensus should be a strong hit, scored %v", score)
	}
	if p.IsHit(randomSeq(r, 300)) {
		t.Error("random sequence should not be a hit")
	}
}

func TestCountHitsOnSimulatedCommunity(t *testing.T) {
	// Every genome in a simulated community carries the planted marker, so
	// the profile built from the marker must hit (nearly) all of them.
	comm := sim.GenerateCommunity(sim.CommunityConfig{
		NumGenomes: 10, MeanGenomeLen: 6000, RRNALen: 300, RRNADivergence: 0.03,
		StrainFraction: 0, Seed: 4,
	})
	p := BuildProfile([][]byte{comm.RRNAMarker}, 0.9)
	var seqs [][]byte
	for _, g := range comm.Genomes {
		seqs = append(seqs, g.Seq)
	}
	hits := p.CountHits(seqs)
	if hits < 9 {
		t.Errorf("only %d of 10 marker-bearing genomes detected", hits)
	}
	// Fragments that do not contain the marker must not be hits.
	nonMarker := 0
	for _, g := range comm.Genomes {
		pos := g.RRNAPositions[0]
		if pos > 600 {
			if !p.IsHit(g.Seq[:500]) {
				nonMarker++
			}
		} else if pos+300+500 < len(g.Seq) {
			if !p.IsHit(g.Seq[pos+300 : pos+300+500]) {
				nonMarker++
			}
		} else {
			nonMarker++
		}
	}
	if nonMarker < 8 {
		t.Errorf("marker-free fragments misclassified: only %d of 10 clean", nonMarker)
	}
}

func TestDegenerateProfiles(t *testing.T) {
	empty := BuildProfile(nil, 0.9)
	if empty.length != 0 {
		t.Error("empty profile should have length 0")
	}
	if empty.IsHit([]byte("ACGT")) {
		t.Error("empty profile should never hit")
	}
	p := BuildProfile([][]byte{[]byte("ACGT")}, 2.0) // conservation clamped
	if p.length != 4 {
		t.Error("profile length wrong")
	}
	if hit := p.Scan(nil); hit.Score != 0 {
		t.Errorf("scan of empty sequence = %+v", hit)
	}
	if !p.IsHit([]byte("ACGT")) {
		t.Error("exact match should hit")
	}
}

func TestScanShortSequence(t *testing.T) {
	p := BuildProfile([][]byte{[]byte("ACGTACGTACGT")}, 0.9)
	hit := p.Scan([]byte("ACGTA"))
	// A short prefix still produces a partial (low) score without panicking.
	if hit.Score >= 0.9 {
		t.Errorf("short sequence scored too high: %v", hit.Score)
	}
}
