package aligner

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"mhmgo/internal/dbg"
	"mhmgo/internal/dht"
	"mhmgo/internal/dist"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// testContigs builds a small contig set (IDs are reassigned on distribution).
func testContigs() []dbg.Contig {
	return []dbg.Contig{
		{ID: 0, Seq: []byte("ACGTTGCAAGCTTACGGATCCGTAAACTGGTCCATTGGCAACGGTATTCCAGGAATTCACAGG"), Depth: 20},
		{ID: 1, Seq: []byte("TTGGCCAATCGGATTACCGGTTAAGGCCTTGACCGGTATGCCAGTTGGAACCTT"), Depth: 15},
	}
}

// distributeTestContigs splits a replicated contig slice over the ranks and
// returns the distributed set. Distribution reassigns IDs, so when slots is
// non-nil (one per rank, shared by all ranks) it also gathers the
// sequence->global-ID map, identical on every rank: each rank writes its own
// slot before a barrier and merges all of them after it.
func distributeTestContigs(r *pgas.Rank, contigs []dbg.Contig, slots []map[string]int) (*dbg.ContigSet, map[string]int) {
	lo, hi := r.BlockRange(len(contigs))
	cs := dbg.DistributeContigs(r, contigs[lo:hi], dist.Distributed)
	if slots == nil {
		return cs, nil
	}
	local := map[string]int{}
	cs.ForEachLocal(r, func(_ int, c dbg.Contig) { local[string(c.Seq)] = c.ID })
	slots[r.ID()] = local
	r.Barrier()
	ids := map[string]int{}
	for _, part := range slots {
		maps.Copy(ids, part)
	}
	return cs, ids
}

func TestBuildIndexCoversAllSeeds(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 3})
	contigs := testContigs()
	opts := DefaultOptions(15)
	var idx *Index
	ids := map[string]int{}
	slots := make([]map[string]int, 3)
	m.Run(func(r *pgas.Rank) {
		cs, idMap := distributeTestContigs(r, contigs, slots)
		got := BuildIndex(r, cs, opts)
		if r.ID() == 0 {
			idx = got
			for k, v := range idMap {
				ids[k] = v
			}
		}
	})
	// Every seed of every contig must be present in the index, under the
	// contig's distributed ID.
	seeds := idx.Seeds.Snapshot()
	for _, c := range contigs {
		id := ids[string(c.Seq)]
		it := seq.NewKmerIter(c.Seq, 15)
		for km, off, ok := it.Next(); ok; km, off, ok = it.Next() {
			canon, _ := km.Canonical()
			hits, ok := seeds[canon]
			if !ok {
				t.Fatalf("seed at contig %d offset %d missing", id, off)
			}
			found := false
			for _, h := range hits {
				if h.ContigID == id && h.Pos == off {
					found = true
				}
			}
			if !found {
				t.Fatalf("seed at contig %d offset %d has no hit entry", id, off)
			}
		}
	}
}

func TestAlignPerfectRead(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 2})
	contigs := testContigs()
	opts := DefaultOptions(15)
	var alignments []Alignment
	ids := map[string]int{}
	slots := make([]map[string]int, 2)
	m.Run(func(r *pgas.Rank) {
		cs, idMap := distributeTestContigs(r, contigs, slots)
		idx := BuildIndex(r, cs, opts)
		var reads []seq.Read
		if r.ID() == 0 {
			reads = []seq.Read{
				{ID: "fwd", Seq: contigs[0].Seq[5:45]},
				{ID: "rev", Seq: seq.ReverseComplement(contigs[1].Seq[10:50])},
				{ID: "junk", Seq: []byte(strings.Repeat("ACAC", 10))},
			}
		}
		got, _ := AlignReads(r, idx, reads, 0, opts)
		// Only rank 0 holds reads, so its alignments are all of them.
		if r.ID() == 0 {
			alignments = got
			for k, v := range idMap {
				ids[k] = v
			}
		}
	})
	if len(alignments) != 2 {
		t.Fatalf("got %d alignments, want 2: %+v", len(alignments), alignments)
	}
	byRead := map[string]Alignment{}
	for _, a := range alignments {
		byRead[a.ReadID] = a
	}
	fwd := byRead["fwd"]
	if fwd.ContigID != ids[string(contigs[0].Seq)] || fwd.ContigPos != 5 || fwd.Reverse {
		t.Errorf("forward alignment wrong: %+v", fwd)
	}
	if fwd.Identity() != 1.0 || fwd.AlignLen != 40 {
		t.Errorf("forward alignment score wrong: %+v", fwd)
	}
	rev := byRead["rev"]
	if rev.ContigID != ids[string(contigs[1].Seq)] || rev.ContigPos != 10 || !rev.Reverse {
		t.Errorf("reverse alignment wrong: %+v", rev)
	}
}

func TestAlignToleratesMismatches(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 1})
	contigs := testContigs()
	opts := DefaultOptions(15)
	m.Run(func(r *pgas.Rank) {
		cs, _ := distributeTestContigs(r, contigs, nil)
		idx := BuildIndex(r, cs, opts)
		readSeq := append([]byte(nil), contigs[0].Seq[2:52]...)
		readSeq[30] = flipBase(readSeq[30])
		readSeq[40] = flipBase(readSeq[40])
		got, _ := AlignReads(r, idx, []seq.Read{{ID: "noisy", Seq: readSeq}}, 0, opts)
		if len(got) != 1 {
			t.Fatalf("noisy read did not align")
		}
		if got[0].Mismatch != 2 || got[0].ContigPos != 2 {
			t.Errorf("alignment = %+v", got[0])
		}
	})
}

func flipBase(c byte) byte {
	if c == 'A' {
		return 'C'
	}
	return 'A'
}

func TestAlignRejectsLowIdentity(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 1})
	contigs := testContigs()
	opts := DefaultOptions(15)
	m.Run(func(r *pgas.Rank) {
		cs, _ := distributeTestContigs(r, contigs, nil)
		idx := BuildIndex(r, cs, opts)
		// Five mismatches in 40 bases: identity 0.875, just below minIdentity.
		readSeq := append([]byte(nil), contigs[0].Seq[0:40]...)
		for i := 20; i < 25; i++ {
			readSeq[i] = flipBase(readSeq[i])
		}
		got, _ := AlignReads(r, idx, []seq.Read{{ID: "bad", Seq: readSeq}}, 0, opts)
		if len(got) != 0 {
			t.Errorf("low-identity read should not align: %+v", got)
		}
	})
}

func TestSoftwareCacheReducesCommunication(t *testing.T) {
	comm := sim.GenerateCommunity(sim.CommunityConfig{NumGenomes: 2, MeanGenomeLen: 4000, Seed: 31, StrainFraction: 0})
	contigs := make([]dbg.Contig, len(comm.Genomes))
	for i, g := range comm.Genomes {
		contigs[i] = dbg.Contig{ID: i, Seq: g.Seq, Depth: 20}
	}
	reads := sim.SimulateReads(comm, sim.ReadConfig{ReadLen: 80, InsertSize: 200, ErrorRate: 0.01, Coverage: 10, Seed: 32})

	// remoteGets holds each rank's one-sided remote reads during AlignReads.
	var remoteGets [4]uint64
	run := func(useCache bool) (float64, AlignStats) {
		m := pgas.NewMachine(pgas.Config{Ranks: 4, RanksPerNode: 1})
		opts := DefaultOptions(21)
		opts.UseCache = useCache
		var stats AlignStats
		res := m.Run(func(r *pgas.Rank) {
			cs, _ := distributeTestContigs(r, contigs, nil)
			idx := BuildIndex(r, cs, opts)
			lo, hi := r.BlockRange(len(reads))
			before := r.Stats().RemoteGets
			_, s := AlignReads(r, idx, reads[lo:hi], lo, opts)
			remoteGets[r.ID()] = r.Stats().RemoteGets - before
			if r.ID() == 0 {
				stats = s
			}
		})
		return res.SimSeconds, stats
	}
	cachedTime, cachedStats := run(true)
	// Seeds are asked of their owners by exchange, never read one-sidedly:
	// with the contig cache on, a rank's only remote reads are the first
	// fetch of each remote contig.
	for rank, n := range remoteGets {
		if n > uint64(len(contigs)) {
			t.Errorf("rank %d made %d remote reads aligning against %d contigs", rank, n, len(contigs))
		}
	}
	uncachedTime, _ := run(false)
	if rate := float64(cachedStats.SeedCacheHits) / float64(cachedStats.SeedLookups); rate <= 0.1 {
		t.Errorf("seed cache hit rate %v too low", rate)
	}
	if cachedTime >= uncachedTime {
		t.Errorf("software cache should reduce simulated time: %v vs %v", cachedTime, uncachedTime)
	}
}

func TestAlignmentRateOnSimulatedReads(t *testing.T) {
	comm := sim.GenerateCommunity(sim.CommunityConfig{NumGenomes: 3, MeanGenomeLen: 5000, Seed: 41, StrainFraction: 0})
	contigs := make([]dbg.Contig, len(comm.Genomes))
	for i, g := range comm.Genomes {
		contigs[i] = dbg.Contig{ID: i, Seq: g.Seq, Depth: 20}
	}
	reads := sim.SimulateReads(comm, sim.ReadConfig{ReadLen: 100, InsertSize: 250, ErrorRate: 0.01, Coverage: 8, Seed: 42})
	m := pgas.NewMachine(pgas.Config{Ranks: 4})
	opts := DefaultOptions(21)
	var aligned, total int
	m.Run(func(r *pgas.Rank) {
		cs, _ := distributeTestContigs(r, contigs, nil)
		idx := BuildIndex(r, cs, opts)
		lo, hi := r.BlockRange(len(reads))
		got, _ := AlignReads(r, idx, reads[lo:hi], lo, opts)
		n := pgas.AllReduce(r, len(got), pgas.ReduceSum)
		if r.ID() == 0 {
			aligned, total = n, len(reads)
		}
	})
	rate := float64(aligned) / float64(total)
	if rate < 0.9 {
		t.Errorf("only %v of reads aligned to their source genomes", rate)
	}
}

// refAlignReads is the per-seed alignment path the exchange replaced, kept
// as the oracle of AlignReads: every strided seed of every read is one
// CachedReader.Get of the frozen seed index, and each hit list is sorted
// into a copy before its candidates are fetched through the contig Reader
// and extended. The caller freezes idx.Seeds.
func refAlignReads(r *pgas.Rank, idx *Index, reads []seq.Read, readOffset int, opts Options) ([]Alignment, AlignStats) {
	opts.SeedLen = idx.SeedLen
	reader := idx.Seeds.NewCachedReader(r, cacheEntries, opts.UseCache)
	contigCache := 0
	if opts.UseCache {
		contigCache = cacheEntries
	}
	creader := idx.Contigs.NewReader(r, contigCache)
	var out []Alignment
	var stats AlignStats
	scratch := NewScratch()
	for i, read := range reads {
		if opts.OnlyLib != nil && read.LibID != *opts.OnlyLib {
			continue
		}
		stats.ReadsTotal++
		best, found := refAlignOne(r, reader, creader, read, opts, scratch)
		if found {
			best.ReadIdx = readOffset + i
			best.ReadID = read.ID
			best.LibID = read.LibID
			out = append(out, best)
		}
	}
	stats.ReadsAligned = len(out)
	return out, stats
}

// refAlignOne seeds and extends one read for refAlignReads.
func refAlignOne(r *pgas.Rank, reader *dht.CachedReader[seq.Kmer, []SeedHit], creader *dist.Reader[dbg.Contig], read seq.Read, opts Options, scratch *Scratch) (Alignment, bool) {
	var best Alignment
	var bestContig dbg.Contig
	found := false
	scratch.BeginRead(read.Seq)
	tried := scratch.tried
	clear(tried)
	it := seq.NewKmerIter(read.Seq, opts.SeedLen)
	nextSeedAt := 0
	for {
		km, off, ok := it.Next()
		if !ok {
			break
		}
		if off < nextSeedAt {
			continue
		}
		nextSeedAt = off + seedStride
		canon, readRC := km.Canonical()
		hits, ok := reader.Get(canon)
		if !ok || len(hits) > maxHitsPerSeed {
			continue
		}
		hits = append([]SeedHit(nil), hits...)
		sort.Slice(hits, func(i, j int) bool {
			if hits[i].ContigID != hits[j].ContigID {
				return hits[i].ContigID < hits[j].ContigID
			}
			if hits[i].Pos != hits[j].Pos {
				return hits[i].Pos < hits[j].Pos
			}
			return !hits[i].Reverse && hits[j].Reverse
		})
		for _, h := range hits {
			contig := creader.Get(h.ContigID)
			reverse := readRC != h.Reverse
			key := [3]int{h.ContigID, h.Pos - off, boolToInt(reverse)}
			if tried[key] {
				continue
			}
			tried[key] = true
			a, ok := extend(read.Seq, contig, h, off, reverse, opts, scratch)
			r.Compute(float64(a.AlignLen))
			if !ok {
				continue
			}
			if !found || betterAlignment(a, contig, best, bestContig) {
				best = a
				bestContig = contig
				found = true
			}
		}
	}
	return best, found
}

// oracleFixture is a random contig set and reads sampled from it: every
// contig carries one shared motif, so the motif's seeds have more hits than
// maxHitsPerSeed, and some reads are the motif alone; half the reads are
// reverse complements, some carry an N or substitutions, some are random,
// and the reads alternate between two libraries.
func oracleFixture(seed int64) ([]dbg.Contig, []seq.Read) {
	rng := rand.New(rand.NewSource(seed))
	motif := randBases(rng, 40)
	contigs := make([]dbg.Contig, maxHitsPerSeed+8)
	for i := range contigs {
		s := randBases(rng, 150+rng.Intn(250))
		copy(s[rng.Intn(len(s)-len(motif)):], motif)
		contigs[i] = dbg.Contig{ID: i, Seq: s, Depth: 10}
	}
	reads := make([]seq.Read, 600)
	for i := range reads {
		n := 60 + rng.Intn(60)
		var s []byte
		switch {
		case i%50 == 0:
			s = append([]byte(nil), motif...)
		case i%10 == 9:
			s = randBases(rng, n)
		default:
			c := contigs[rng.Intn(len(contigs))].Seq
			n = min(n, len(c))
			start := rng.Intn(len(c) - n + 1)
			s = append([]byte(nil), c[start:start+n]...)
			for j := rng.Intn(4); j > 0; j-- {
				s[rng.Intn(n)] = seq.BaseToChar(byte(rng.Intn(4)))
			}
		}
		if i%7 == 3 {
			s[rng.Intn(len(s))] = 'N'
		}
		if i%2 == 1 {
			s = seq.ReverseComplement(s)
		}
		reads[i] = seq.Read{ID: fmt.Sprintf("r%d", i), Seq: s, LibID: uint8(i % 3 % 2)}
	}
	return contigs, reads
}

// TestAlignReadsMatchesPerSeedOracle: the exchange-based AlignReads returns,
// on every rank, exactly the alignments and counts of the per-seed oracle,
// for P in {1, 3, 16}, Workers 1 and 4, the cache on and off, and each
// library alone or both.
func TestAlignReadsMatchesPerSeedOracle(t *testing.T) {
	lib0, lib1 := uint8(0), uint8(1)
	for _, fixture := range []int64{5, 6} {
		contigs, reads := oracleFixture(fixture)
		for _, p := range []int{1, 3, 16} {
			for _, workers := range []int{1, 4} {
				for _, useCache := range []bool{true, false} {
					for _, only := range []*uint8{nil, &lib0, &lib1} {
						name := fmt.Sprintf("fixture=%d/P=%d/workers=%d/cache=%v/lib=%v", fixture, p, workers, useCache, only != nil)
						if only != nil {
							name += fmt.Sprint(*only)
						}
						t.Run(name, func(t *testing.T) {
							checkAgainstOracle(t, contigs, reads, p, workers, useCache, only)
						})
					}
				}
			}
		}
	}
}

// checkAgainstOracle aligns each rank's block of reads with AlignReads and
// then, on the same index frozen, with refAlignReads, and compares them.
func checkAgainstOracle(t *testing.T, contigs []dbg.Contig, reads []seq.Read, p, workers int, useCache bool, only *uint8) {
	m := pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 2, Workers: workers})
	opts := DefaultOptions(21)
	opts.UseCache = useCache
	opts.OnlyLib = only
	got := make([][]Alignment, p)
	want := make([][]Alignment, p)
	gotStats := make([]AlignStats, p)
	wantStats := make([]AlignStats, p)
	res := m.Run(func(r *pgas.Rank) {
		cs, _ := distributeTestContigs(r, contigs, nil)
		idx := BuildIndex(r, cs, opts)
		lo, hi := r.BlockRange(len(reads))
		got[r.ID()], gotStats[r.ID()] = AlignReads(r, idx, reads[lo:hi], lo, opts)
		r.Barrier()
		idx.Seeds.Freeze()
		want[r.ID()], wantStats[r.ID()] = refAlignReads(r, idx, reads[lo:hi], lo, opts)
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	total := 0
	for rank := range p {
		if !slices.Equal(got[rank], want[rank]) {
			t.Errorf("rank %d: alignments differ from the oracle's:\n got %+v\nwant %+v", rank, got[rank], want[rank])
		}
		if g, w := gotStats[rank], wantStats[rank]; g.ReadsAligned != w.ReadsAligned || g.ReadsTotal != w.ReadsTotal {
			t.Errorf("rank %d: aligned %d of %d, oracle %d of %d", rank, g.ReadsAligned, g.ReadsTotal, w.ReadsAligned, w.ReadsTotal)
		}
		total += len(got[rank])
	}
	if total == 0 {
		t.Error("no read aligned")
	}
}
