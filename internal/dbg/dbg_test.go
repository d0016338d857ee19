package dbg

import (
	"sort"
	"strings"
	"testing"

	"mhmgo/internal/dist"
	"mhmgo/internal/kmeranalysis"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// TestBuildFreezesGraph: traversal only reads the graph, so Build hands it
// over in dht's read-only phase and a late write is a phase-discipline panic.
func TestBuildFreezesGraph(t *testing.T) {
	reads := coverWithReads("ACGTTGCAAGCTTACGGATCCGTAAACTGGTCCATTGGCA", 20, 2, 3)
	m := pgas.NewMachine(pgas.Config{Ranks: 2})
	opts := kmeranalysis.DefaultOptions(11)
	opts.UseBloom = false
	m.Run(func(r *pgas.Rank) {
		lo, hi := r.BlockRange(len(reads))
		res := kmeranalysis.Run(r, reads[lo:hi], opts, nil)
		g := Build(r, res.Counts, 11, defaultThresholds())
		defer func() {
			if recover() == nil {
				t.Errorf("rank %d: SetLocal on a built graph did not panic", r.ID())
			}
		}()
		g.Entries.SetLocal(r, seq.MustKmer("ACGTTGCAAGC"), Entry{})
	})
}

// buildFromReads runs k-mer analysis and graph construction over the reads
// on a machine with the given rank count, returning the contigs.
func buildFromReads(t *testing.T, reads []seq.Read, k, ranks int, topts ThresholdOptions) []Contig {
	t.Helper()
	m := pgas.NewMachine(pgas.Config{Ranks: ranks})
	opts := kmeranalysis.DefaultOptions(k)
	opts.UseBloom = false
	opts.MinCount = 2
	var contigs []Contig
	m.Run(func(r *pgas.Rank) {
		lo, hi := r.BlockRange(len(reads))
		res := kmeranalysis.Run(r, reads[lo:hi], opts, nil)
		g := Build(r, res.Counts, k, topts)
		local := Traverse(r, g, TraverseOptions{})
		cs := DistributeContigs(r, local, dist.Distributed)
		if all := emitSorted(r, cs); r.ID() == 0 {
			contigs = all
		}
	})
	return contigs
}

// defaultThresholds returns the MetaHipMer defaults (core.DefaultConfig's
// TBase and ErrorRate).
func defaultThresholds() ThresholdOptions {
	return ThresholdOptions{TBase: 2, ErrorRate: 0.015, MinCount: 1}
}

// emitSorted emits the set onto rank 0 (nil elsewhere) in the deterministic
// global order, so results compare across rank counts.
func emitSorted(r *pgas.Rank, cs *ContigSet) []Contig {
	out := cs.Emit(r)
	sort.Slice(out, func(i, j int) bool { return ContigLess(out[i], out[j]) })
	return out
}

func coverWithReads(genome string, readLen, step, copies int) []seq.Read {
	var reads []seq.Read
	for c := 0; c < copies; c++ {
		for start := 0; start+readLen <= len(genome); start += step {
			reads = append(reads, seq.Read{ID: "r", Seq: []byte(genome[start : start+readLen])})
		}
		// Also cover the tail.
		if len(genome) > readLen {
			reads = append(reads, seq.Read{ID: "t", Seq: []byte(genome[len(genome)-readLen:])})
		}
	}
	return reads
}

func TestThresholdOptions(t *testing.T) {
	topts := ThresholdOptions{TBase: 2, ErrorRate: 0.01}
	if got := topts.THQFor(10); got != 2 {
		t.Errorf("THQFor(10) = %d, want tbase 2", got)
	}
	if got := topts.THQFor(10000); got != 100 {
		t.Errorf("THQFor(10000) = %d, want 100", got)
	}
	global := ThresholdOptions{GlobalTHQ: 5, TBase: 2, ErrorRate: 0.01}
	if got := global.THQFor(10000); got != 5 {
		t.Errorf("global THQFor = %d, want 5", got)
	}
	def := defaultThresholds()
	if def.TBase == 0 || def.ErrorRate <= 0 {
		t.Error("defaults should be non-zero")
	}
}

func TestSingleGenomeAssemblesToOneContig(t *testing.T) {
	// An error-free, well-covered random-ish sequence with no repeats of
	// length >= k should assemble into a single contig equal to the genome.
	genome := "ACGTTGCAAGCTTACGGATCCGTAAACTGGTCCATTGGCAACGGTATTCCAGGAATTCACAGGCTTAAGCCTGAATCGTA"
	reads := coverWithReads(genome, 30, 3, 3)
	contigs := buildFromReads(t, reads, 15, 4, defaultThresholds())
	if len(contigs) != 1 {
		t.Fatalf("got %d contigs, want 1: %+v", len(contigs), summarize(contigs))
	}
	got := string(contigs[0].Seq)
	want := genome
	if got != want && got != string(seq.ReverseComplement([]byte(want))) {
		t.Errorf("assembled contig does not match genome:\n got %s\nwant %s", got, want)
	}
	if contigs[0].Depth < 2 {
		t.Errorf("contig depth %v too low", contigs[0].Depth)
	}
}

func summarize(contigs []Contig) []string {
	var out []string
	for _, c := range contigs {
		out = append(out, string(c.Seq))
	}
	return out
}

func TestAssemblyIndependentOfRankCount(t *testing.T) {
	genome := "ACGTTGCAAGCTTACGGATCCGTAAACTGGTCCATTGGCAACGGTATTCCAGGAATTCACAGGCTTAAGCCTGAATCGTAGGCATCAGTT"
	reads := coverWithReads(genome, 32, 4, 3)
	base := buildFromReads(t, reads, 17, 1, defaultThresholds())
	for _, ranks := range []int{2, 5, 8} {
		got := buildFromReads(t, reads, 17, ranks, defaultThresholds())
		if len(got) != len(base) {
			t.Fatalf("ranks=%d: %d contigs vs %d with 1 rank", ranks, len(got), len(base))
		}
		for i := range got {
			if string(got[i].Seq) != string(base[i].Seq) {
				t.Errorf("ranks=%d: contig %d differs", ranks, i)
			}
		}
	}
}

func TestForkSplitsContigs(t *testing.T) {
	// Two genomes share a long identical core but diverge on both sides:
	// the shared core plus the four unique arms should appear as separate
	// contigs because the junctions are forks.
	core := "GGATCCGTAAACTGGTCCATTGGCAACGGTATTCCA"
	g1 := "ACGTTGCAAGCTTAC" + core + "TTACGCATGACCGGT"
	g2 := "TTGGCCAATTGGCAT" + core + "AACCGTTGCAATCCG"
	reads := append(coverWithReads(g1, 25, 2, 3), coverWithReads(g2, 25, 2, 3)...)
	contigs := buildFromReads(t, reads, 13, 4, defaultThresholds())
	if len(contigs) < 3 {
		t.Fatalf("expected the shared core to split the assembly, got %d contigs", len(contigs))
	}
	// The core must be present (possibly extended by k-1 bases on each side).
	foundCore := false
	for _, c := range contigs {
		s := string(c.Seq)
		rc := string(seq.ReverseComplement([]byte(s)))
		if strings.Contains(s, core[2:len(core)-2]) || strings.Contains(rc, core[2:len(core)-2]) {
			foundCore = true
		}
	}
	if !foundCore {
		t.Error("shared core not represented in any contig")
	}
}

func TestDepthDependentThresholdHelpsHighCoverage(t *testing.T) {
	// A high-coverage genome with sequencing errors: with a strict global
	// threshold the erroneous extensions fragment the assembly; the
	// depth-dependent threshold should tolerate them and produce longer
	// contigs.
	comm := sim.GenerateCommunity(sim.CommunityConfig{
		NumGenomes: 1, MeanGenomeLen: 4000, RRNALen: 200, Seed: 21, StrainFraction: 0,
	})
	reads := sim.SimulateReads(comm, sim.ReadConfig{
		ReadLen: 80, InsertSize: 200, ErrorRate: 0.02, Coverage: 150, Seed: 22,
	})

	k := 21
	metaTopts := ThresholdOptions{TBase: 2, ErrorRate: 0.025, MinCount: 1}
	globalTopts := ThresholdOptions{GlobalTHQ: 1, MinCount: 1}

	meta := ComputeStats(buildFromReads(t, reads, k, 4, metaTopts))
	global := ComputeStats(buildFromReads(t, reads, k, 4, globalTopts))

	if meta.N50 <= global.N50 {
		t.Errorf("depth-dependent threshold should give longer contigs on high-coverage data: N50 %d vs %d",
			meta.N50, global.N50)
	}
}

func TestTraverseMinContigLen(t *testing.T) {
	genome := "ACGTTGCAAGCTTACGGATCCGTAAACTGGTCCATTGGCA"
	reads := coverWithReads(genome, 20, 2, 3)
	m := pgas.NewMachine(pgas.Config{Ranks: 2})
	opts := kmeranalysis.DefaultOptions(11)
	opts.UseBloom = false
	var all, filtered []Contig
	m.Run(func(r *pgas.Rank) {
		lo, hi := r.BlockRange(len(reads))
		res := kmeranalysis.Run(r, reads[lo:hi], opts, nil)
		g := Build(r, res.Counts, 11, defaultThresholds())
		a := emitSorted(r, DistributeContigs(r, Traverse(r, g, TraverseOptions{}), dist.Distributed))
		f := emitSorted(r, DistributeContigs(r, Traverse(r, g, TraverseOptions{MinContigLen: 10000}), dist.Distributed))
		if r.ID() == 0 {
			all, filtered = a, f
		}
	})
	if len(all) == 0 {
		t.Fatal("no contigs at all")
	}
	if len(filtered) != 0 {
		t.Errorf("MinContigLen filter kept %d contigs", len(filtered))
	}
}

func TestComputeStats(t *testing.T) {
	contigs := []Contig{
		{Seq: make([]byte, 100)},
		{Seq: make([]byte, 50)},
		{Seq: make([]byte, 10)},
	}
	s := ComputeStats(contigs)
	if s.Count != 3 || s.TotalBases != 160 || s.MaxLen != 100 {
		t.Errorf("stats = %+v", s)
	}
	if s.N50 != 100 {
		t.Errorf("N50 = %d, want 100", s.N50)
	}
	if !strings.Contains(s.String(), "N50=100") {
		t.Errorf("String() = %q", s.String())
	}
	empty := ComputeStats(nil)
	if empty.Count != 0 || empty.N50 != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

// canonicalSeq returns the lexicographically smaller of a sequence and its
// reverse complement, materializing the complement: the definition the
// in-place orientation checks (greaterThanRC, seq.Packed.GreaterThanRC) are
// held to.
func canonicalSeq(s []byte) []byte {
	rc := seq.ReverseComplement(s)
	if string(rc) < string(s) {
		return rc
	}
	return s
}

func TestCanonicalSeq(t *testing.T) {
	for _, s := range [][]byte{[]byte("TTGC"), []byte("GCAA"), []byte("ACGT"), []byte("A"), []byte("T")} {
		c := canonicalSeq(s)
		rc := seq.ReverseComplement(s)
		if string(c) != string(s) && string(c) != string(rc) {
			t.Errorf("%s: canonical sequence must be the sequence or its reverse complement", s)
		}
		if string(c) != string(canonicalSeq(rc)) {
			t.Errorf("%s: canonical sequence must be orientation-invariant", s)
		}
		// A walk is kept unless it sorts after its reverse complement, that is
		// unless it is the non-canonical orientation.
		if got, want := greaterThanRC(s), string(c) != string(s); got != want {
			t.Errorf("%s: greaterThanRC = %v, canonical form is %s", s, got, c)
		}
	}
}

func TestDistributeContigsDeduplicatesAndAssignsIDs(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 3})
	var got []Contig
	m.Run(func(r *pgas.Rank) {
		var local []Contig
		// Every rank emits the same palindrome-ish duplicate plus a unique contig.
		local = append(local, Contig{Seq: []byte("AACCGGTT")})
		local = append(local, Contig{Seq: []byte(strings.Repeat("ACGT", r.ID()+3))})
		cs := DistributeContigs(r, local, dist.Distributed)
		// Every contig carries the ID naming its owner and shard index, so
		// IDs are unique across ranks.
		cs.ForEachLocal(r, func(i int, c Contig) {
			if c.ID != dist.ID(r.ID(), i) {
				t.Errorf("rank %d contig %d has ID %d, want %d", r.ID(), i, c.ID, dist.ID(r.ID(), i))
			}
		})
		all := emitSorted(r, cs)
		if r.ID() == 0 {
			got = all
		}
	})
	if len(got) != 4 {
		t.Fatalf("got %d contigs, want 4 (3 unique + 1 deduplicated)", len(got))
	}
	for i, c := range got {
		if i > 0 && len(got[i-1].Seq) < len(c.Seq) {
			t.Error("contigs not sorted by descending length")
		}
	}
}
