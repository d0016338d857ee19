package kmeranalysis

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mhmgo/internal/bloom"
	"mhmgo/internal/dbg"
	"mhmgo/internal/dht"
	"mhmgo/internal/dist"
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
	for canon := range seq.CanonicalKmers(s, k) {
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

// refMerge is the per-contig merge the pieces replaced, the oracle of
// TestMergeContigKmers: every k-mer of every whole contig, its neighbours
// read from the contig, folded into want with pseudoCount.
func refMerge(want map[seq.Kmer]seq.KmerCount, contigs []dbg.Contig, k int, pseudoCount uint32) {
	for _, c := range contigs {
		for canon, at := range seq.CanonicalKmers(c.Seq, k) {
			var left, right byte
			var hasLeft, hasRight bool
			if at.Off > 0 {
				left, hasLeft = seq.CharToBase(c.Seq[at.Off-1])
			}
			if end := at.Off + k; end < len(c.Seq) {
				right, hasRight = seq.CharToBase(c.Seq[end])
			}
			kc, ok := want[canon]
			if !ok {
				kc = seq.KmerCount{Kmer: canon}
			}
			kc.Observe(left, right, hasLeft, hasRight, at.RC, pseudoCount)
			want[canon] = kc
		}
	}
}

// mergeContigs is the test fixture of TestMergeContigKmers: contigs shorter
// than k, of exactly one piece, of one piece and one k-mer, and of several
// pieces with an N run and lower-case bases, plus one contig's reverse
// complement alone and behind three more bases, so that the same k-mers
// come from pieces cut at other offsets, on other ranks.
func mergeContigs(k int) []dbg.Contig {
	rng := rand.New(rand.NewSource(9))
	bases := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
		}
		return b
	}
	long := bases(1700)
	for i := 400; i < 412; i++ {
		long[i] = 'N'
	}
	for i := 900; i < 960; i++ {
		long[i] += 'a' - 'A'
	}
	out := []dbg.Contig{{Seq: bases(k - 1)}, {Seq: bases(k)}, {Seq: bases(dbg.PieceKmers + k - 1)}, {Seq: bases(dbg.PieceKmers + k)}, {Seq: long}}
	rc := seq.ReverseComplement(out[3].Seq)
	return append(out, dbg.Contig{Seq: rc}, dbg.Contig{Seq: append(bases(3), rc...)})
}

// TestMergeContigKmers: the counts table after merging the pieces dealt out
// from a distributed contig set is the per-contig oracle's, k-mer by k-mer,
// at P in {1, 3, 16}; merging again on top of those entries doubles every
// count.
func TestMergeContigKmers(t *testing.T) {
	for _, k := range []int{11, 21} {
		contigs := mergeContigs(k)
		want := map[seq.Kmer]seq.KmerCount{}
		refMerge(want, contigs, k, 3)
		for _, p := range []int{1, 3, 16} {
			m := pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 4})
			counts := NewCountsMap(m)
			merge := func() {
				res := m.Run(func(r *pgas.Rank) {
					lo, hi := r.BlockRange(len(contigs))
					cs := dbg.DistributeContigs(r, slices.Clone(contigs[lo:hi]), dist.Distributed)
					MergeContigKmers(r, counts, dbg.DealPieces(r, cs, k), k, 3)
				})
				if res.Err != nil {
					t.Fatal(res.Err)
				}
			}
			merge()
			if got := counts.Snapshot(); !maps.Equal(got, want) {
				t.Fatalf("k=%d P=%d: merged %d k-mers, the per-contig oracle %d, or their counts differ", k, p, len(got), len(want))
			}
			merge()
			for km, kc := range counts.Snapshot() {
				w := want[km]
				w.Count *= 2
				for i := range w.Left {
					w.Left[i], w.Right[i] = 2*w.Left[i], 2*w.Right[i]
				}
				if kc != w {
					t.Fatalf("k=%d P=%d: re-merged k-mer %s is %+v, want %+v", k, p, km, kc, w)
				}
			}
		}
	}
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
	// the unaggregated run sends one message per remote k-mer occurrence,
	// not one per supermer. Every put is a supermer exchange's; the
	// collectives' messages are the rest, the same in both runs.
	remote := 0
	owners := NewCountsMap(pgas.NewMachine(pgas.Config{Ranks: ranks}))
	for rank := 0; rank < ranks; rank++ {
		var obs []Observation
		for _, read := range splitReads(reads, rank, ranks) {
			obs, _ = AppendObservations(obs, nil, read, opts)
		}
		for _, o := range obs {
			if owners.Owner(o.Kmer) != rank {
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
		t.Errorf("unaggregated run sent %d exchange messages, want one per remote k-mer occurrence (%d)", w.RemotePuts, remote)
	}
	if a.Messages-a.RemotePuts != w.Messages-w.RemotePuts {
		t.Errorf("collective messages differ: %d aggregated, %d unaggregated", a.Messages-a.RemotePuts, w.Messages-w.RemotePuts)
	}
}

// refChunk and refWireSize are the per-k-mer path's round size, in
// observations, and the wire bytes of one observation: the packed k-mer (two
// words plus k), the two extension bases and three flags.
const (
	refChunk    = 1024
	refWireSize = 22
)

// refObservations is the per-k-mer extraction the supermer path replaced,
// the oracle of AppendObservations: it rolls the forward k-mer and its
// reverse complement over the read's 2-bit codes and emits one observation
// per valid k-mer.
func refObservations(dst []Observation, codes []byte, read seq.Read, opts Options) ([]Observation, []byte) {
	k := opts.K
	n := len(read.Seq)
	if n < k {
		return dst, codes
	}
	if cap(codes) < n {
		codes = make([]byte, n)
	} else {
		codes = codes[:n]
	}
	for i, c := range read.Seq {
		code, valid := seq.CharToBase(c)
		if !valid {
			code = 0xFF
		}
		codes[i] = code
	}
	out := dst
	km := seq.Kmer{K: uint8(k)}
	rcKm := seq.Kmer{K: uint8(k)}
	valid := 0
	for i := 0; i < n; i++ {
		code := codes[i]
		if code == 0xFF {
			valid = 0
			continue
		}
		km = km.AppendBase(code)
		rcKm = rcKm.PrependBase(seq.ComplementCode(code))
		valid++
		if valid < k {
			continue
		}
		off := i - k + 1
		var o Observation
		if rcKm.Less(km) {
			o.Kmer, o.WasRC = rcKm, true
		} else {
			o.Kmer, o.WasRC = km, false
		}
		if off > 0 {
			if lc := codes[off-1]; lc != 0xFF && qualOK(read, off-1) {
				o.Left = lc
				o.HasLeft = true
			}
		}
		if i+1 < n {
			if rc := codes[i+1]; rc != 0xFF && qualOK(read, i+1) {
				o.Right = rc
				o.HasRight = true
			}
		}
		out = append(out, o)
	}
	return out, codes
}

// refRun is the per-k-mer k-mer analysis the supermer path replaced: every
// observation travels on its own to the owner of its k-mer's hash, in rounds
// of refChunk observations, and is folded by the same rules. With the Bloom
// filter off its table holds what Run's holds, whatever either owns by.
func refRun(r *pgas.Rank, reads []seq.Read, opts Options) Result {
	counts := dht.NewMapCollective[seq.Kmer, seq.KmerCount](r, seq.Kmer.Hash, 40)
	var local []Observation
	var codes []byte
	for _, read := range reads {
		local, codes = refObservations(local, codes, read, opts)
		r.Compute(float64(len(read.Seq)))
	}
	totalObs := pgas.AllReduce(r, int64(len(local)), pgas.ReduceSum)
	var filter *bloom.Filter
	if opts.UseBloom {
		filter = bloom.NewWithEstimates(max(uint64(totalObs)/uint64(r.NRanks()), 1024), bloomFPRate)
	}
	rounds := pgas.AllReduce(r, (len(local)+refChunk-1)/refChunk, pgas.ReduceMax)
	for ci := 0; ci < rounds; ci++ {
		lo := min(ci*refChunk, len(local))
		part := local[lo:min(lo+refChunk, len(local))]
		owner := func(o Observation) int { return counts.Owner(o.Kmer) }
		if !opts.Aggregate {
			pgas.ChargeUnaggregated(r, part, func(_ int, o Observation) int { return owner(o) })
		}
		for _, o := range dist.Exchange(r, part, owner, func(Observation) int { return refWireSize }) {
			counts.UpdateLocal(r, o.Kmer, func(kc *seq.KmerCount, found bool) bool {
				if !found {
					absorbed := uint32(0)
					if filter != nil {
						if !filter.TestAndAdd(o.Kmer.Hash()) {
							return false
						}
						absorbed = 1
					}
					*kc = seq.KmerCount{Kmer: o.Kmer, Count: absorbed}
				}
				kc.Observe(o.Left, o.Right, o.HasLeft, o.HasRight, o.WasRC, 1)
				return true
			})
		}
	}
	r.Barrier()
	var toDelete []seq.Kmer
	counts.ForEachLocal(r, func(km seq.Kmer, kc seq.KmerCount) {
		if kc.Count < opts.MinCount {
			toDelete = append(toDelete, km)
		}
	})
	for _, km := range toDelete {
		counts.DeleteLocal(r, km)
	}
	r.Barrier()
	return Result{Counts: counts, DistinctKmers: pgas.AllReduce(r, counts.LocalLen(r.ID()), pgas.ReduceSum)}
}

// oracleReads is the oracle test's read set: reads of a random genome on
// both strands, with ambiguous bases, low-quality bases, reads without
// qualities, reads shorter than the k-mers, and reads inside a poly-A tract
// longer than a supermer may be.
func oracleReads(seed int64) []seq.Read {
	r := rand.New(rand.NewSource(seed))
	g := []byte(randRead(r, 3000, false).Seq)
	copy(g[1200:], strings.Repeat("A", 400))
	var reads []seq.Read
	for i := 0; i < 240; i++ {
		n := 40 + r.Intn(260)
		switch i % 8 {
		case 0:
			n = 1 + r.Intn(60) // shorter than most k
		case 1:
			reads = append(reads, seq.Read{ID: "polyA", Seq: g[1200 : 1200+n%400]})
			continue
		}
		lo := r.Intn(len(g) - n)
		rd := randRead(r, n, i%3 == 0) // random qualities, maybe one N
		copy(rd.Seq, g[lo:lo+n])
		if i%3 == 0 {
			rd.Seq[r.Intn(n)] = 'N'
		}
		if i%5 == 0 {
			rd.Seq = seq.ReverseComplement(rd.Seq)
		}
		if i%7 == 0 {
			rd.Qual = nil
		}
		reads = append(reads, rd)
		if i%2 == 0 {
			reads = append(reads, rd) // coverage, so counts clear MinCount
		}
	}
	return reads
}

// TestRunMatchesPerKmerOracle requires Run's table to equal the per-k-mer
// oracle's: the same k-mers with the same counts and extension histograms.
// Without the Bloom filter fold order does not matter, so any rank count
// must agree; with it, which sighting the filter absorbs depends on the fold
// order, which only one rank shares with the oracle.
func TestRunMatchesPerKmerOracle(t *testing.T) {
	reads := oracleReads(23)
	capped := false
	for _, k := range []int{5, 21, 33, 63} {
		var codes []byte
		for _, rd := range reads {
			codes = cutSupermers(codes, rd, k, func(sm supermer) { capped = capped || sm.n == maxSupermerBases })
		}
		for _, tc := range []struct {
			p     int
			bloom bool
		}{{1, false}, {3, false}, {16, false}, {1, true}} {
			for _, agg := range []bool{true, false} {
				t.Run(fmt.Sprintf("k=%d/P=%d/bloom=%v/agg=%v", k, tc.p, tc.bloom, agg), func(t *testing.T) {
					opts := DefaultOptions(k)
					opts.UseBloom, opts.Aggregate = tc.bloom, agg
					var got, want Result
					pgas.NewMachine(pgas.Config{Ranks: tc.p}).Run(func(r *pgas.Rank) {
						res := Run(r, splitReads(reads, r.ID(), tc.p), opts, nil)
						if r.ID() == 0 {
							got = res
						}
					})
					pgas.NewMachine(pgas.Config{Ranks: tc.p}).Run(func(r *pgas.Rank) {
						res := refRun(r, splitReads(reads, r.ID(), tc.p), opts)
						if r.ID() == 0 {
							want = res
						}
					})
					if got.DistinctKmers != want.DistinctKmers || got.DistinctKmers == 0 {
						t.Fatalf("DistinctKmers = %d, oracle %d", got.DistinctKmers, want.DistinctKmers)
					}
					if g, w := got.Counts.Snapshot(), want.Counts.Snapshot(); !maps.Equal(g, w) {
						for km, kc := range w {
							if g[km] != kc {
								t.Fatalf("k-mer %s: %+v, oracle %+v", km, g[km], kc)
							}
						}
						t.Fatal("tables differ")
					}
				})
			}
		}
	}
	if !capped {
		t.Error("no supermer reached maxSupermerBases; the poly-A reads do not exercise the cap")
	}
}

// TestSupermerKmersOwnedByDestination checks the routing invariant: every
// k-mer decoded from a supermer is owned, in the counts table, by the rank
// the supermer is sent to.
func TestSupermerKmersOwnedByDestination(t *testing.T) {
	reads := oracleReads(29)
	for _, p := range []int{3, 16, 64} {
		counts := NewCountsMap(pgas.NewMachine(pgas.Config{Ranks: p}))
		for _, k := range []int{5, 15, 21, 33, 63, 64} {
			var codes []byte
			var obs []Observation
			for _, rd := range reads {
				codes = cutSupermers(codes, rd, k, func(sm supermer) {
					dest := counts.OwnerOfHash(sm.minimizer)
					obs = sm.appendObservations(obs[:0], k)
					for _, o := range obs {
						if counts.Owner(o.Kmer) != dest {
							t.Fatalf("P=%d k=%d: k-mer %s owned by %d, supermer sent to %d", p, k, o.Kmer, counts.Owner(o.Kmer), dest)
						}
					}
				})
			}
		}
	}
}

// TestRunAndMergeBarriersP8 pins the per-rank barrier count of Run plus
// MergeContigKmers at P=8, with an exchange counting one barrier. Run passes
// the counts table's pgas.Shared (1), three all-reduces (which count none)
// and one exchange per round; no barrier follows the rounds, the pruning or
// the last all-reduce. The merge passes the exchange that deals the contig pieces
// out, its flush's exchange and no closing barrier.
// It also pins
// the point of supermers: at the same per-round byte budget, the rounds fall
// at least fivefold from the per-k-mer path's.
func TestRunAndMergeBarriersP8(t *testing.T) {
	const p, k = 8, 21
	comm := sim.GenerateCommunity(sim.CommunityConfig{NumGenomes: 3, MeanGenomeLen: 8000, Seed: 31})
	reads := sim.SimulateReads(comm, sim.ReadConfig{ReadLen: 100, InsertSize: 250, ErrorRate: 0.01, Coverage: 20, Seed: 32})
	rounds, refRounds := 0, 0
	for rank := 0; rank < p; rank++ {
		var codes []byte
		n, bytes, kmers := 0, 0, 0
		for _, rd := range splitReads(reads, rank, p) {
			codes = cutSupermers(codes, rd, k, func(sm supermer) {
				kmers += sm.kmers(k)
				if bytes == 0 || bytes+sm.wireSize() > roundBytes {
					n, bytes = n+1, 0
				}
				bytes += sm.wireSize()
			})
		}
		rounds, refRounds = max(rounds, n), max(refRounds, (kmers+refChunk-1)/refChunk)
	}
	t.Logf("%d supermer rounds, %d per-k-mer rounds", rounds, refRounds)
	if rounds*5 > refRounds {
		t.Errorf("%d supermer rounds, %d per-k-mer rounds; want at least a fivefold drop", rounds, refRounds)
	}
	contigs := []dbg.Contig{{Seq: comm.Genomes[0].Seq[:2000]}, {Seq: comm.Genomes[1].Seq[:1500]}}
	var runBarriers, mergeBarriers [p]uint64
	pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 4}).Run(func(r *pgas.Rank) {
		s0 := r.Stats()
		res := Run(r, splitReads(reads, r.ID(), p), DefaultOptions(k), nil)
		s1 := r.Stats()
		lo, hi := r.BlockRange(len(contigs))
		cs := dbg.DistributeContigs(r, slices.Clone(contigs[lo:hi]), dist.Distributed)
		s2 := r.Stats()
		MergeContigKmers(r, res.Counts, dbg.DealPieces(r, cs, k), k, 3)
		s3 := r.Stats()
		runBarriers[r.ID()], mergeBarriers[r.ID()] = s1.Barriers-s0.Barriers, s3.Barriers-s2.Barriers
	})
	const shared, allReduce, exchange = 1, 0, 1 // barriers counted per collective
	for rank := 0; rank < p; rank++ {
		if want := uint64(shared + 3*allReduce + rounds*exchange); runBarriers[rank] != want {
			t.Errorf("rank %d: Run passed %d barriers, want %d (%d rounds)", rank, runBarriers[rank], want, rounds)
		}
		if mergeBarriers[rank] != 2*exchange {
			t.Errorf("rank %d: dealing and merging the contig pieces passed %d barriers, want %d", rank, mergeBarriers[rank], 2*exchange)
		}
	}
}
