package kmeranalysis

import (
	"strings"
	"testing"

	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// readsFromSequence converts one long sequence into overlapping error-free
// reads of the given length and step.
func readsFromSequence(s string, readLen, step int) []seq.Read {
	var reads []seq.Read
	for start := 0; start+readLen <= len(s); start += step {
		reads = append(reads, seq.Read{
			ID:  "r",
			Seq: []byte(s[start : start+readLen]),
		})
	}
	return reads
}

func splitReads(reads []seq.Read, rank, nranks int) []seq.Read {
	lo, hi := pgas.BlockRange(len(reads), nranks, rank)
	return reads[lo:hi]
}

func TestRunCountsKmersExactly(t *testing.T) {
	// A single sequence read with 3x coverage: every interior k-mer should be
	// counted three times and retained.
	genome := "ACGTTGCAAGCTTACGGATCCGTAAACTGGT"
	reads := readsFromSequence(strings.Repeat(genome, 1), len(genome), 1)
	reads = append(reads, reads[0], reads[0])

	m := pgas.NewMachine(pgas.Config{Ranks: 2})
	opts := DefaultOptions(7)
	opts.UseBloom = false
	opts.MinCount = 2
	var results [2]Result
	m.Run(func(r *pgas.Rank) {
		results[r.ID()] = Run(r, splitReads(reads, r.ID(), 2), opts, nil)
	})
	res := results[0]
	// Expected counts: canonical occurrences in one genome copy times the
	// three copies of the read (palindromic regions legitimately count both
	// orientations).
	wantCounts := make(map[string]uint32)
	for _, km := range canonicalKmersOf([]byte(genome), 7) {
		wantCounts[km.String()] += 3
	}
	if res.DistinctKmers != len(wantCounts) {
		t.Errorf("DistinctKmers = %d, want %d", res.DistinctKmers, len(wantCounts))
	}
	snap := res.Counts.Snapshot()
	for km := range snap {
		want, ok := wantCounts[km.String()]
		if !ok {
			t.Errorf("unexpected k-mer %s", km.String())
			continue
		}
		if snap[km].Count != want {
			t.Errorf("k-mer %s count = %d, want %d", km.String(), snap[km].Count, want)
		}
	}
	// Every occurrence is counted: with the filter off and every k-mer
	// retained, the counts sum to the reads' k-mer occurrences.
	var sum uint32
	for _, kc := range snap {
		sum += kc.Count
	}
	if want := 3 * (len(genome) - 7 + 1); sum != uint32(want) {
		t.Errorf("counts sum to %d, want %d occurrences", sum, want)
	}
}

func TestRunDropsSingletons(t *testing.T) {
	genome := "ACGTTGCAAGCTTACGGATCCGTAAACTGGTACCGTTAAGGCCTTAACCGGTT"
	// Two copies of the genome reads plus one error read seen only once.
	reads := readsFromSequence(genome, 25, 5)
	reads = append(reads, reads...)
	errRead := seq.Read{ID: "err", Seq: []byte("TGCATAGGTCCAGCTTCAAGGACTG")}
	reads = append(reads, errRead)

	// Error-only singleton k-mers: appear exactly once in the error read and
	// never in the genome (canonically).
	genomeKmers := map[string]bool{}
	for _, km := range canonicalKmersOf([]byte(genome), 11) {
		genomeKmers[km.String()] = true
	}
	errCounts := map[string]int{}
	for _, km := range canonicalKmersOf(errRead.Seq, 11) {
		errCounts[km.String()]++
	}
	var errOnly []seq.Kmer
	for _, km := range canonicalKmersOf(errRead.Seq, 11) {
		s := km.String()
		if errCounts[s] == 1 && !genomeKmers[s] {
			errOnly = append(errOnly, km)
		}
	}
	if len(errOnly) == 0 {
		t.Fatal("test setup: no error-only singleton k-mers")
	}

	for _, useBloom := range []bool{false, true} {
		m := pgas.NewMachine(pgas.Config{Ranks: 4})
		opts := DefaultOptions(11)
		opts.UseBloom = useBloom
		opts.MinCount = 2
		var res Result
		m.Run(func(r *pgas.Rank) {
			got := Run(r, splitReads(reads, r.ID(), 4), opts, nil)
			if r.ID() == 0 {
				res = got
			}
		})
		snap := res.Counts.Snapshot()
		for _, km := range errOnly {
			if _, ok := snap[km]; ok {
				t.Errorf("useBloom=%v: singleton error k-mer %s was retained", useBloom, km.String())
			}
		}
		if res.DistinctKmers == 0 {
			t.Errorf("useBloom=%v: no k-mers retained", useBloom)
		}
	}
}

// canonicalKmersOf returns all valid k-mers of s in canonical form and order
// of appearance: the oracle the counted table is checked against.
func canonicalKmersOf(s []byte, k int) []seq.Kmer {
	var out []seq.Kmer
	it := seq.NewKmerIter(s, k)
	for km, _, ok := it.Next(); ok; km, _, ok = it.Next() {
		canon, _ := km.Canonical()
		out = append(out, canon)
	}
	return out
}

func TestBloomReducesNoiseKmers(t *testing.T) {
	// With sequencing errors, the bloom prefilter should keep the retained
	// k-mer set essentially identical to the unfiltered run (both apply the
	// MinCount threshold) while never reporting fewer genuine k-mers.
	comm := sim.GenerateCommunity(sim.CommunityConfig{NumGenomes: 2, MeanGenomeLen: 5000, Seed: 5})
	reads := sim.SimulateReads(comm, sim.ReadConfig{ReadLen: 80, InsertSize: 200, ErrorRate: 0.02, Coverage: 12, Seed: 6})

	run := func(useBloom bool) Result {
		m := pgas.NewMachine(pgas.Config{Ranks: 4})
		opts := DefaultOptions(21)
		opts.UseBloom = useBloom
		var res Result
		m.Run(func(r *pgas.Rank) {
			got := Run(r, splitReads(reads, r.ID(), 4), opts, nil)
			if r.ID() == 0 {
				res = got
			}
		})
		return res
	}
	with := run(true)
	without := run(false)
	if with.DistinctKmers == 0 || without.DistinctKmers == 0 {
		t.Fatal("no k-mers retained")
	}
	ratio := float64(with.DistinctKmers) / float64(without.DistinctKmers)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("bloom filter changed retained k-mers too much: %d vs %d", with.DistinctKmers, without.DistinctKmers)
	}
}

func TestExtensionsRecorded(t *testing.T) {
	// In an error-free high-coverage sequence, interior k-mers must have
	// unique extensions recorded on both sides.
	genome := "ACGTTGCAAGCTTACGGATCCGTAAACTGGT"
	var reads []seq.Read
	for i := 0; i < 5; i++ {
		reads = append(reads, seq.Read{ID: "g", Seq: []byte(genome)})
	}
	m := pgas.NewMachine(pgas.Config{Ranks: 2})
	opts := DefaultOptions(9)
	opts.UseBloom = false
	var res Result
	m.Run(func(r *pgas.Rank) {
		got := Run(r, splitReads(reads, r.ID(), 2), opts, nil)
		if r.ID() == 0 {
			res = got
		}
	})
	snap := res.Counts.Snapshot()
	interior := 0
	for _, kc := range snap {
		if kc.Left.Total() > 0 && kc.Right.Total() > 0 {
			interior++
			_, bestL, secondL := kc.Left.Best()
			if secondL != 0 {
				t.Errorf("error-free data should have unique left extensions, got %v", kc.Left)
			}
			if bestL == 0 {
				t.Error("interior k-mer with zero best extension count")
			}
		}
	}
	if interior == 0 {
		t.Fatal("no interior k-mers found")
	}
}

func TestQualityFilteringSkipsLowQualityExtensions(t *testing.T) {
	genome := "ACGTTGCAAGCTTACGGATCC"
	lowQual := make([]byte, len(genome))
	for i := range lowQual {
		lowQual[i] = '%' // phred 4, just below qualThreshold
	}
	reads := []seq.Read{
		{ID: "a", Seq: []byte(genome), Qual: lowQual},
		{ID: "b", Seq: []byte(genome), Qual: lowQual},
	}
	m := pgas.NewMachine(pgas.Config{Ranks: 1})
	opts := DefaultOptions(9)
	opts.UseBloom = false
	var res Result
	m.Run(func(r *pgas.Rank) {
		res = Run(r, reads, opts, nil)
	})
	for _, kc := range res.Counts.Snapshot() {
		if kc.Left.Total() != 0 || kc.Right.Total() != 0 {
			t.Fatalf("low-quality extensions should be ignored, got %+v", kc)
		}
	}
}

func TestMergeContigKmers(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 2})
	counts := NewCountsMap(m)
	contig := []byte("ACGTTGCAAGCTTACGGATCCGTAAACTGG")
	m.Run(func(r *pgas.Rank) {
		var local [][]byte
		if r.ID() == 0 {
			local = [][]byte{contig}
		}
		MergeContigKmers(r, counts, local, 11, 3)
	})
	snap := counts.Snapshot()
	wantKmers := canonicalKmersOf(contig, 11)
	distinct := map[string]bool{}
	for _, km := range wantKmers {
		distinct[km.String()] = true
	}
	if len(snap) != len(distinct) {
		t.Fatalf("merged %d k-mers, want %d", len(snap), len(distinct))
	}
	for km, kc := range snap {
		if kc.Count < 3 {
			t.Errorf("contig k-mer %s count %d, want >= 3", km.String(), kc.Count)
		}
	}
	// Merging again on top of existing entries must not lose anything.
	m.Run(func(r *pgas.Rank) {
		var local [][]byte
		if r.ID() == 1 {
			local = [][]byte{contig}
		}
		MergeContigKmers(r, counts, local, 11, 3)
	})
	snap2 := counts.Snapshot()
	if len(snap2) != len(snap) {
		t.Errorf("re-merge changed distinct count: %d vs %d", len(snap2), len(snap))
	}
	for km, kc := range snap2 {
		if kc.Count < 6 {
			t.Errorf("re-merged k-mer %s count %d, want >= 6", km.String(), kc.Count)
		}
	}
	// Contigs shorter than k are ignored without error.
	m.Run(func(r *pgas.Rank) {
		MergeContigKmers(r, counts, [][]byte{[]byte("ACG")}, 11, 3)
	})
}

func TestUnaggregatedMatchesAggregatedContent(t *testing.T) {
	comm := sim.GenerateCommunity(sim.CommunityConfig{NumGenomes: 2, MeanGenomeLen: 3000, Seed: 12})
	reads := sim.SimulateReads(comm, sim.ReadConfig{ReadLen: 70, InsertSize: 180, ErrorRate: 0.005, Coverage: 8, Seed: 13})
	const ranks = 4
	opts := DefaultOptions(17)
	opts.UseBloom = false

	run := func(aggregate bool) (Result, pgas.RunResult) {
		m := pgas.NewMachine(pgas.Config{Ranks: ranks, RanksPerNode: 1})
		opts := opts
		opts.Aggregate = aggregate
		var res Result
		r0 := m.Run(func(r *pgas.Rank) {
			got := Run(r, splitReads(reads, r.ID(), ranks), opts, nil)
			if r.ID() == 0 {
				res = got
			}
		})
		return res, r0
	}
	agg, aggRun := run(true)
	raw, rawRun := run(false)
	if agg.DistinctKmers != raw.DistinctKmers {
		t.Errorf("aggregation changed results: %d vs %d distinct k-mers", agg.DistinctKmers, raw.DistinctKmers)
	}
	if aggRun.SimSeconds >= rawRun.SimSeconds {
		t.Errorf("aggregated run (%v) should be faster than unaggregated (%v)", aggRun.SimSeconds, rawRun.SimSeconds)
	}

	// Only the message count differs: every byte moves once either way, and
	// the unaggregated run sends one message per remote observation. Every
	// put is an observation exchange's; the collectives' messages are the
	// rest, the same in both runs.
	remote := 0
	for rank := 0; rank < ranks; rank++ {
		var obs []Observation
		for _, read := range splitReads(reads, rank, ranks) {
			obs, _ = AppendObservations(obs, nil, read, opts)
		}
		for _, o := range obs {
			if int(o.Kmer.Hash()%ranks) != rank {
				remote++
			}
		}
	}
	a, w := aggRun.Stats, rawRun.Stats
	if a.BytesSent != w.BytesSent {
		t.Errorf("bytes sent: aggregated %d, unaggregated %d; want equal", a.BytesSent, w.BytesSent)
	}
	for name, s := range map[string]pgas.CommStats{"aggregated": a, "unaggregated": w} {
		if s.BytesSent != s.BytesReceived {
			t.Errorf("%s: %d bytes sent, %d received", name, s.BytesSent, s.BytesReceived)
		}
	}
	if w.RemotePuts != uint64(remote) {
		t.Errorf("unaggregated run sent %d exchange messages, want one per remote observation (%d)", w.RemotePuts, remote)
	}
	if a.Messages-a.RemotePuts != w.Messages-w.RemotePuts {
		t.Errorf("collective messages differ: %d aggregated, %d unaggregated", a.Messages-a.RemotePuts, w.Messages-w.RemotePuts)
	}
}
