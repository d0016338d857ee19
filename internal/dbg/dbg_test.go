package dbg

import (
	"math/rand"
	"slices"
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
// over finished. Traverse leaves every shard as Build sorted it, and a second
// traversal of the same graph emits the same contigs on every rank.
func TestBuildFreezesGraph(t *testing.T) {
	reads := coverWithReads("ACGTTGCAAGCTTACGGATCCGTAAACTGGTCCATTGGCA", 20, 2, 3)
	m := pgas.NewMachine(pgas.Config{Ranks: 2})
	opts := kmeranalysis.DefaultOptions(11)
	opts.UseBloom = false
	m.Run(func(r *pgas.Rank) {
		lo, hi := r.BlockRange(len(reads))
		res := kmeranalysis.Run(r, reads[lo:hi], opts, nil)
		g := Build(r, res.Counts, 11, defaultThresholds())
		built := slices.Clone(g.shards[r.ID()])
		first := Traverse(r, g, TraverseOptions{})
		second := Traverse(r, g, TraverseOptions{})
		if !slices.Equal(g.shards[r.ID()], built) {
			t.Errorf("rank %d: Traverse wrote the graph's shard", r.ID())
		}
		if !slices.EqualFunc(first, second, func(a, b Contig) bool {
			return a.ID == b.ID && a.Depth == b.Depth && string(a.Seq) == string(b.Seq)
		}) {
			t.Errorf("rank %d: a second traversal emitted %d contigs, the first %d, or different ones", r.ID(), len(second), len(first))
		}
		if r.ID() == 0 && g.vertexCount() == 0 {
			t.Error("empty graph")
		}
	})
}

// TestGraphOwnedAsCounts pins Build's layout: every vertex sits in the shard
// of the rank that owns its k-mer in the counts table, each shard is strictly
// increasing under seq.Kmer.Less, and the shards hold every distinct k-mer.
func TestGraphOwnedAsCounts(t *testing.T) {
	comm := sim.GenerateCommunity(sim.CommunityConfig{NumGenomes: 2, MeanGenomeLen: 3000, Seed: 42})
	reads := sim.SimulateReads(comm, sim.ReadConfig{ReadLen: 80, InsertSize: 200, ErrorRate: 0.01, Coverage: 8, Seed: 43})
	for _, p := range []int{1, 3, 8, 16} {
		for _, k := range []int{21, 33} {
			var g *Graph
			var owner func(seq.Kmer) int
			var distinct int
			pgas.NewMachine(pgas.Config{Ranks: p}).Run(func(r *pgas.Rank) {
				lo, hi := r.BlockRange(len(reads))
				res := kmeranalysis.Run(r, reads[lo:hi], kmeranalysis.DefaultOptions(k), nil)
				if built := Build(r, res.Counts, k, defaultThresholds()); r.ID() == 0 {
					g, owner, distinct = built, res.Counts.Owner, res.DistinctKmers
				}
			})
			total := 0
			for rank, shard := range g.shards {
				for i, v := range shard {
					if o := owner(v.km); o != rank {
						t.Fatalf("P=%d k=%d: vertex %s in rank %d's shard, owned by %d", p, k, v.km, rank, o)
					}
					if i > 0 && !shard[i-1].km.Less(v.km) {
						t.Fatalf("P=%d k=%d rank %d: vertex %d (%s) does not sort before %s", p, k, rank, i-1, shard[i-1].km, v.km)
					}
				}
				total += len(shard)
			}
			if total != distinct || total == 0 {
				t.Errorf("P=%d k=%d: shards hold %d vertices, %d distinct k-mers", p, k, total, distinct)
			}
		}
	}
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

	meta := contigN50(buildFromReads(t, reads, k, 4, metaTopts))
	global := contigN50(buildFromReads(t, reads, k, 4, globalTopts))

	if meta <= global {
		t.Errorf("depth-dependent threshold should give longer contigs on high-coverage data: N50 %d vs %d",
			meta, global)
	}
}

// contigN50 returns the N50 of a contig list.
func contigN50(contigs []Contig) int {
	lengths := make([]int, len(contigs))
	for i, c := range contigs {
		lengths[i] = c.Len()
	}
	return seq.SummarizeLengths(lengths).N50
}

// canonicalSeq returns the lexicographically smaller of a sequence and its
// reverse complement, materializing the complement: the definition the
// in-place orientation check seq.GreaterThanRC is held to.
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
		if got, want := seq.GreaterThanRC(s), string(c) != string(s); got != want {
			t.Errorf("%s: seq.GreaterThanRC = %v, canonical form is %s", s, got, c)
		}
	}
}

// TestDistributeContigsDeduplicatesAndAssignsIDs: every contig lands on rank
// ContigOwner(c) mod P, once, in a ContigLess-ordered shard numbered
// dist.ID(rank, i), and the emitted set does not depend on P.
func TestDistributeContigsDeduplicatesAndAssignsIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var unique []string
	for i := 0; i < 24; i++ {
		// Lengths repeat, so the sequence tie-break orders part of each shard.
		b := make([]byte, 8+i%4)
		for j := range b {
			b[j] = "ACGT"[rng.Intn(4)]
		}
		unique = append(unique, string(b))
	}
	const dup = "AACCGGTT"
	want := append([]string{dup}, unique...)
	slices.Sort(want)
	want = slices.Compact(want)

	for _, p := range []int{1, 3, 16} {
		m := pgas.NewMachine(pgas.Config{Ranks: p})
		var got []string
		m.Run(func(r *pgas.Rank) {
			// Every rank emits the same duplicate, and each unique contig is
			// emitted twice, by ranks i and i+1 mod P.
			local := []Contig{{Seq: []byte(dup)}}
			for i, s := range unique {
				for _, src := range []int{i % p, (i + 1) % p} {
					if src == r.ID() {
						local = append(local, Contig{Seq: []byte(s)})
					}
				}
			}
			cs := DistributeContigs(r, local, dist.Distributed)
			shard := cs.Local(r)
			for i, c := range shard {
				if owner := ContigOwner(c) % p; owner != r.ID() {
					t.Errorf("P=%d: contig %s on rank %d, owner is %d", p, c.Seq, r.ID(), owner)
				}
				if i > 0 && !ContigLess(shard[i-1], c) {
					t.Errorf("P=%d rank %d: shard not in ContigLess order at %d", p, r.ID(), i)
				}
				if c.ID != dist.ID(r.ID(), i) {
					t.Errorf("P=%d rank %d contig %d has ID %d, want %d", p, r.ID(), i, c.ID, dist.ID(r.ID(), i))
				}
			}
			all := cs.Emit(r)
			if r.ID() == 0 {
				for _, c := range all {
					got = append(got, string(c.Seq))
				}
				slices.Sort(got)
			}
		})
		if !slices.Equal(got, want) {
			t.Errorf("P=%d: emitted %d contigs %v, want the %d unique %v", p, len(got), got, len(want), want)
		}
	}
}
