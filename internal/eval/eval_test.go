package eval

import (
	"strings"
	"testing"

	"mhmgo/internal/hmm"
	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

func testCommunity() *sim.Community {
	return sim.GenerateCommunity(sim.CommunityConfig{
		NumGenomes: 4, MeanGenomeLen: 5000, RRNALen: 200, RRNADivergence: 0.02,
		StrainFraction: 0, Seed: 55,
	})
}

func TestPerfectAssemblyScoresPerfectly(t *testing.T) {
	comm := testCommunity()
	var assembly [][]byte
	for _, g := range comm.Genomes {
		assembly = append(assembly, g.Seq)
	}
	opts := DefaultOptions()
	opts.RRNAProfile = hmm.BuildProfile([][]byte{comm.RRNAMarker}, 0.9)
	rep := Evaluate("perfect", assembly, comm, opts)
	if rep.GenomeFraction < 0.98 {
		t.Errorf("genome fraction of the reference against itself = %v", rep.GenomeFraction)
	}
	if rep.Misassemblies != 0 {
		t.Errorf("perfect assembly has %d misassemblies", rep.Misassemblies)
	}
	if rep.RRNACount != len(comm.Genomes) {
		t.Errorf("rRNA count = %d, want %d", rep.RRNACount, len(comm.Genomes))
	}
	if rep.NumSeqs != 4 || rep.TotalLen != comm.TotalBases() {
		t.Errorf("basic stats wrong: %+v", rep)
	}
	for _, g := range rep.PerGenome {
		if g.GenomeFraction < 0.98 {
			t.Errorf("genome %s fraction %v", g.Name, g.GenomeFraction)
		}
		if g.NGA50 < g.Length/2 {
			t.Errorf("genome %s NGA50 %d for a perfect assembly of length %d", g.Name, g.NGA50, g.Length)
		}
	}
}

func TestFragmentedAssemblyLowerNGA50(t *testing.T) {
	comm := testCommunity()
	var whole, pieces [][]byte
	for _, g := range comm.Genomes {
		whole = append(whole, g.Seq)
		for start := 0; start < len(g.Seq); start += 800 {
			end := start + 800
			if end > len(g.Seq) {
				end = len(g.Seq)
			}
			pieces = append(pieces, g.Seq[start:end])
		}
	}
	opts := DefaultOptions()
	full := Evaluate("full", whole, comm, opts)
	frag := Evaluate("frag", pieces, comm, opts)
	if frag.PerGenome[0].NGA50 >= full.PerGenome[0].NGA50 {
		t.Errorf("fragmented NGA50 (%d) should be below full (%d)",
			frag.PerGenome[0].NGA50, full.PerGenome[0].NGA50)
	}
	if frag.GenomeFraction < 0.9 {
		t.Errorf("fragmented assembly still covers the genomes, got %v", frag.GenomeFraction)
	}
	if full.N50 <= frag.N50 {
		t.Errorf("N50 ordering wrong: %d vs %d", full.N50, frag.N50)
	}
}

func TestChimericContigCountsAsMisassembly(t *testing.T) {
	comm := testCommunity()
	g0, g1 := comm.Genomes[0].Seq, comm.Genomes[1].Seq
	chimera := append(append([]byte(nil), g0[:1500]...), g1[1000:2500]...)
	opts := DefaultOptions()
	rep := Evaluate("chimera", [][]byte{chimera}, comm, opts)
	if rep.Misassemblies != 1 {
		t.Errorf("chimeric contig not flagged: %+v", rep.Misassemblies)
	}
}

func TestRearrangedContigCountsAsMisassembly(t *testing.T) {
	comm := testCommunity()
	g := comm.Genomes[2].Seq
	// Join two distant segments of the same genome out of order.
	rearranged := append(append([]byte(nil), g[3000:4500]...), g[0:1500]...)
	opts := DefaultOptions()
	rep := Evaluate("rearranged", [][]byte{rearranged}, comm, opts)
	if rep.Misassemblies != 1 {
		t.Errorf("rearranged contig not flagged: misassemblies=%d", rep.Misassemblies)
	}
}

func TestUnalignedSequences(t *testing.T) {
	comm := testCommunity()
	junk := []byte(strings.Repeat("ACGT", 300))
	rep := Evaluate("junk", [][]byte{junk}, comm, DefaultOptions())
	if rep.UnalignedSeqs != 1 {
		t.Errorf("junk sequence should be unaligned: %+v", rep)
	}
	if rep.GenomeFraction > 0.05 {
		t.Errorf("junk should not cover the references: %v", rep.GenomeFraction)
	}
}

func TestLengthThresholdsAndTable(t *testing.T) {
	comm := testCommunity()
	assembly := [][]byte{comm.Genomes[0].Seq, comm.Genomes[1].Seq[:1200], comm.Genomes[2].Seq[:300]}
	opts := DefaultOptions()
	opts.LengthThresholds = []int{1000, 2000}
	rep := Evaluate("mix", assembly, comm, opts)
	if rep.LenAtLeast[1000] < len(comm.Genomes[0].Seq)+1200 {
		t.Errorf("len>=1000 = %d", rep.LenAtLeast[1000])
	}
	if rep.LenAtLeast[2000] < len(comm.Genomes[0].Seq) || rep.LenAtLeast[2000] >= rep.LenAtLeast[1000] {
		t.Errorf("len>=2000 = %d", rep.LenAtLeast[2000])
	}
	table := FormatTable([]Report{rep}, opts.LengthThresholds)
	if !strings.Contains(table, "mix") || !strings.Contains(table, "GenFrac") {
		t.Errorf("FormatTable output unexpected:\n%s", table)
	}
}

// TestCallerOptionsKept: options built without DefaultOptions are used as
// given, not replaced by the defaults.
func TestCallerOptionsKept(t *testing.T) {
	comm := testCommunity()
	var assembly [][]byte
	for _, g := range comm.Genomes {
		assembly = append(assembly, g.Seq)
	}
	p := hmm.BuildProfile([][]byte{comm.RRNAMarker}, 0.9)
	rep := Evaluate("caller", assembly, comm, Options{LengthThresholds: []int{500}, RRNAProfile: p})
	if got, want := rep.LenAtLeast[500], comm.TotalBases(); got != want {
		t.Errorf("len>=500 = %d, want %d", got, want)
	}
	if len(rep.LenAtLeast) != 1 {
		t.Errorf("length rows %v, want only the caller's 500", rep.LenAtLeast)
	}
	if rep.RRNACount != len(comm.Genomes) {
		t.Errorf("rRNA count = %d with the caller's profile, want %d", rep.RRNACount, len(comm.Genomes))
	}
}

func TestReverseComplementContigStillCovers(t *testing.T) {
	comm := testCommunity()
	rc := seq.ReverseComplement(comm.Genomes[0].Seq)
	rep := Evaluate("rc", [][]byte{rc}, comm, DefaultOptions())
	if rep.PerGenome[0].GenomeFraction < 0.98 {
		t.Errorf("reverse-complement assembly not recognized: %v", rep.PerGenome[0].GenomeFraction)
	}
	if rep.Misassemblies != 0 {
		t.Errorf("reverse-complement contig flagged as misassembled")
	}
}

// TestEvaluateSummarizesLengths: the report's sequence count, total length
// and N50 are the assembly's seq.SummarizeLengths, N50 included on an odd
// total, where half the total is not a whole number of bases. For lengths
// {3, 2, 2} the 3-base sequence holds less than half of 7, so N50 is 2.
func TestEvaluateSummarizesLengths(t *testing.T) {
	var assembly [][]byte
	for _, n := range []int{3, 2, 2} {
		assembly = append(assembly, []byte(strings.Repeat("A", n)))
	}
	rep := Evaluate("odd", assembly, testCommunity(), DefaultOptions())
	if rep.NumSeqs != 3 || rep.TotalLen != 7 || rep.N50 != 2 {
		t.Errorf("Evaluate: %d sequences, %d bases, N50 %d; want 3, 7, 2", rep.NumSeqs, rep.TotalLen, rep.N50)
	}
}

// TestBestGenomeOf pins the one best-genome rule Evaluate's misassembly
// check and the abundance rollup share: most aligned bases, summed over a
// genome's blocks, wins; a tie goes to the lower genome index.
func TestBestGenomeOf(t *testing.T) {
	b := func(genome, n int) block { return block{Genome: genome, SeqEnd: n} }
	for _, tc := range []struct {
		blocks []block
		want   int
	}{
		{nil, -1},
		{[]block{b(3, 0)}, 3},
		{[]block{b(2, 100), b(1, 60), b(1, 60)}, 1},
		{[]block{b(2, 100), b(1, 100)}, 1},
		{[]block{b(0, 50), b(3, 80), b(2, 80)}, 2},
	} {
		if got := bestGenomeOf(tc.blocks); got != tc.want {
			t.Errorf("bestGenomeOf(%v) = %d, want %d", tc.blocks, got, tc.want)
		}
	}
}
