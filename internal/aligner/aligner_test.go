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

// seedOracle is the seed index BuildIndex must build: every stride-1 seed
// of every contig, packed by KmerFromBytes, under its canonical form, with
// one hit per occurrence under the contig's distributed ID, each hit list in
// compareHits order.
func seedOracle(contigs []dbg.Contig, ids map[string]int, k int) map[seq.Kmer][]SeedHit {
	want := map[seq.Kmer][]SeedHit{}
	for _, c := range contigs {
		for off := 0; off+k <= len(c.Seq); off++ {
			km, err := seq.KmerFromBytes(c.Seq[off:], k)
			if err != nil {
				continue
			}
			canon, rc := km.Canonical()
			want[canon] = append(want[canon], SeedHit{ContigID: ids[string(c.Seq)], Pos: off, Reverse: rc})
		}
	}
	for _, hits := range want {
		slices.SortFunc(hits, compareHits)
	}
	return want
}

// buildSeedIndex distributes contigs over p ranks, builds their seed index
// and returns it with the sequence-to-ID map.
func buildSeedIndex(t *testing.T, contigs []dbg.Contig, p int, opts Options) (*Index, map[string]int) {
	t.Helper()
	m := pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 2})
	var idx *Index
	var ids map[string]int
	slots := make([]map[string]int, p)
	res := m.Run(func(r *pgas.Rank) {
		cs, idMap := distributeTestContigs(r, contigs, slots)
		got := BuildIndex(r, cs, opts)
		if r.ID() == 0 {
			idx, ids = got, idMap
		}
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return idx, ids
}

// TestBuildIndexCoversAllSeeds: the index holds exactly the oracle's seeds,
// each with every one of its hits.
func TestBuildIndexCoversAllSeeds(t *testing.T) {
	contigs := testContigs()
	idx, ids := buildSeedIndex(t, contigs, 3, DefaultOptions(15))
	want := seedOracle(contigs, ids, 15)
	if got := idx.Seeds.Snapshot(); !maps.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("index holds %d seeds, oracle %d, or their hits differ", len(got), len(want))
	}
}

// TestSeedIndexOwnedByMinimizer: every seed sits in the partition of its
// minimizer's owner, the counts table's rule, and the partitions together
// are the oracle's index, at P in {1, 3, 16}. At P=256 a rank holding one
// long contig no longer flushes its seeds alone: it deals the contig's
// pieces out, one message to each rank but itself, and flushes the seeds of
// the one piece it keeps, one message per distinct minimizer owner of that
// piece; every seed still lands on its minimizer's owner.
func TestSeedIndexOwnedByMinimizer(t *testing.T) {
	for _, fixture := range []int64{5, 6} {
		contigs, _ := oracleFixture(fixture)
		for _, k := range []int{15, 21, 31} {
			for _, p := range []int{1, 3, 16} {
				idx, ids := buildSeedIndex(t, contigs, p, DefaultOptions(k))
				union := map[seq.Kmer][]SeedHit{}
				for rank := range p {
					idx.Seeds.RangeLocal(rank, func(key seq.Kmer, hits []SeedHit) {
						if owner := int(key.Minimizer() % uint64(p)); owner != rank {
							t.Fatalf("fixture=%d k=%d P=%d: seed %s in rank %d's partition, its minimizer's owner is %d", fixture, k, p, key, rank, owner)
						}
						union[key] = slices.SortedFunc(slices.Values(hits), compareHits)
					})
				}
				if want := seedOracle(contigs, ids, k); !maps.EqualFunc(union, want, slices.Equal) {
					t.Fatalf("fixture=%d k=%d P=%d: partitions hold %d seeds, oracle %d, or their hits differ", fixture, k, p, len(union), len(want))
				}
			}
		}
	}

	const p, k = 256, 31
	contig := dbg.Contig{Seq: randBases(rand.New(rand.NewSource(4)), 3000), Depth: 10}
	kmers := len(contig.Seq) - k + 1
	pieces := (kmers + dbg.PieceKmers - 1) / dbg.PieceKmers
	m := pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 16})
	flushMsgs := make([]uint64, p) // messages of a build with the contig minus those of one without
	holder := -1
	var idx *Index
	res := m.Run(func(r *pgas.Rank) {
		var local []dbg.Contig
		if r.ID() == 0 {
			local = []dbg.Contig{contig}
		}
		for pass, in := range [][]dbg.Contig{local, nil} {
			cs := dbg.DistributeContigs(r, in, dist.Distributed)
			if cs.Len(r) > 0 {
				holder = r.ID()
			}
			before := r.Stats().Messages
			built := BuildIndex(r, cs, DefaultOptions(k))
			if pass == 0 {
				flushMsgs[r.ID()] += r.Stats().Messages - before
				if r.ID() == 0 {
					idx = built
				}
			} else {
				flushMsgs[r.ID()] -= r.Stats().Messages - before
			}
		}
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if holder < 0 {
		t.Fatal("no rank holds the contig")
	}
	// The holder keeps the first piece, the contig's first PieceKmers seeds.
	owners, allOwners := map[uint64]bool{}, map[uint64]bool{}
	for key, at := range seq.CanonicalKmers(contig.Seq, k) {
		if at.Off < dbg.PieceKmers {
			owners[key.Minimizer()%p] = true
		}
		allOwners[key.Minimizer()%p] = true
	}
	want := uint64(pieces - 1 + len(owners))
	if owners[uint64(holder)] {
		want-- // the holder's own seeds are no message
	}
	if got := flushMsgs[holder]; got != want {
		t.Fatalf("the holder of a %d-base contig sends %d messages, want %d: %d pieces dealt to other ranks and one per distinct minimizer owner of the piece it keeps (P=%d)", len(contig.Seq), got, want, pieces-1, p)
	}
	seeds := 0
	for rank := range p {
		idx.Seeds.RangeLocal(rank, func(key seq.Kmer, hits []SeedHit) {
			seeds++
			if owner := int(key.Minimizer() % p); owner != rank {
				t.Fatalf("P=%d: seed %s in rank %d's partition, its minimizer's owner is %d", p, key, rank, owner)
			}
		})
	}
	if want := len(seedOracle([]dbg.Contig{contig}, nil, k)); seeds != want {
		t.Fatalf("P=%d: the index holds %d seeds, the oracle %d", p, seeds, want)
	}
	t.Logf("the holder of a %d-base contig sends %d messages (%d pieces); the whole contig's seeds have %d owners", len(contig.Seq), flushMsgs[holder], pieces, len(allOwners))
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

// TestOneExtensionPerDiagonal aligns a read and its reverse complement, each
// alone, against one contig they cover with several seeds on one diagonal.
// Each must be extended once, so charged one extension: at P=1 AlignReads
// charges three ops per seed (taking it, the owner-local hit-list probe and
// the local contig fetch) and AlignLen per extension. Keying the extensions
// tried by hit.Pos-seedOff, the forward strand's diagonal, would extend the
// reverse-strand read once per seed.
func TestOneExtensionPerDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	contig := dbg.Contig{Seq: randBases(rng, 300), Depth: 10}
	fwd := contig.Seq[60:160]
	for _, read := range []seq.Read{{ID: "fwd", Seq: fwd}, {ID: "rev", Seq: seq.ReverseComplement(fwd)}} {
		pgas.NewMachine(pgas.Config{Ranks: 1}).Run(func(r *pgas.Rank) {
			cs, _ := distributeTestContigs(r, []dbg.Contig{contig}, nil)
			opts := DefaultOptions(21)
			idx := BuildIndex(r, cs, opts)
			before := r.Stats().ComputeOps
			got, stats := AlignReads(r, idx, []seq.Read{read}, 0, opts)
			ops := r.Stats().ComputeOps - before
			if stats.SeedLookups < 5 || len(got) != 1 {
				t.Fatalf("%s: %d seeds, %d alignments; want at least 5 seeds and one alignment", read.ID, stats.SeedLookups, len(got))
			}
			a := got[0]
			if a.ContigPos != 60 || a.AlignLen != len(fwd) || a.Matches != len(fwd) || a.Reverse != (read.ID == "rev") {
				t.Fatalf("%s: aligned as %+v", read.ID, a)
			}
			if extension := ops - 3*float64(stats.SeedLookups); extension != float64(a.AlignLen) {
				t.Errorf("%s: %d seeds on one diagonal charged %v extension ops, want one extension, %d", read.ID, stats.SeedLookups, extension, a.AlignLen)
			}
		})
	}
}

// TestSoftwareCacheReducesCommunication: with the caches on, seeds are asked
// of their owners by exchange, never read one-sidedly, and the contigs the
// extensions read are fetched up front with one vectored get per owner, so a
// rank makes at most P-1 remote reads per pass while the alignments stay
// the per-hit-Get oracle's (refAlignReads). The caches also lower the
// simulated time against the ablation without them.
func TestSoftwareCacheReducesCommunication(t *testing.T) {
	comm := sim.GenerateCommunity(sim.CommunityConfig{NumGenomes: 2, MeanGenomeLen: 4000, Seed: 31, StrainFraction: 0})
	// Cut each genome into 400-base contigs, so a rank's reads land on
	// many contigs of each owner.
	var contigs []dbg.Contig
	for _, g := range comm.Genomes {
		for lo := 0; lo < len(g.Seq); lo += 400 {
			contigs = append(contigs, dbg.Contig{Seq: g.Seq[lo:min(lo+400, len(g.Seq))], Depth: 20})
		}
	}
	reads := sim.SimulateReads(comm, sim.ReadConfig{ReadLen: 80, InsertSize: 200, ErrorRate: 0.01, Coverage: 10, Seed: 32})

	for _, p := range []int{1, 3, 16} {
		// run aligns each rank's block of reads and returns the simulated
		// seconds, each rank's remote gets and contig items fetched during
		// AlignReads, rank 0's statistics, and, with check, whether every
		// rank's alignments equal the oracle's on the same index.
		run := func(useCache, check bool) (float64, []uint64, []uint64, AlignStats) {
			m := pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 1})
			opts := DefaultOptions(21)
			opts.UseCache = useCache
			gets, items := make([]uint64, p), make([]uint64, p)
			var stats AlignStats
			res := m.Run(func(r *pgas.Rank) {
				cs, _ := distributeTestContigs(r, contigs, nil)
				idx := BuildIndex(r, cs, opts)
				lo, hi := r.BlockRange(len(reads))
				before := r.Stats()
				got, s := AlignReads(r, idx, reads[lo:hi], lo, opts)
				after := r.Stats()
				gets[r.ID()] = after.RemoteGets - before.RemoteGets
				items[r.ID()] = after.CacheMisses - before.CacheMisses
				if r.ID() == 0 {
					stats = s
				}
				if !check {
					return
				}
				r.Barrier()
				idx.Seeds.Freeze()
				want, _ := refAlignReads(r, idx, reads[lo:hi], lo, opts)
				if !slices.Equal(got, want) {
					t.Errorf("P=%d rank %d: %d alignments differ from the per-hit-Get oracle's %d", p, r.ID(), len(got), len(want))
				}
			})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			return res.SimSeconds, gets, items, stats
		}
		cachedTime, gets, items, cachedStats := run(true, true)
		var totalGets, totalItems uint64
		for rank, n := range gets {
			if n > uint64(p-1) {
				t.Errorf("P=%d: rank %d made %d remote reads, want at most one per other rank", p, rank, n)
			}
			totalGets += n
			totalItems += items[rank]
		}
		if p == 1 {
			continue
		}
		if totalItems <= totalGets {
			t.Errorf("P=%d: %d remote gets fetched %d contigs: no get carried more than one, the test exercises nothing", p, totalGets, totalItems)
		}
		// At P=16 a rank holds too few reads to repeat a seed often.
		if rate := float64(cachedStats.SeedCacheHits) / float64(cachedStats.SeedLookups); p == 3 && rate <= 0.1 {
			t.Errorf("P=%d: seed cache hit rate %v too low", p, rate)
		}
		if uncachedTime, _, _, _ := run(false, false); cachedTime >= uncachedTime {
			t.Errorf("P=%d: software cache should reduce simulated time: %v vs %v", p, cachedTime, uncachedTime)
		}
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
// Map.Get of the frozen seed index, and each hit list is sorted into a copy
// before its candidates are fetched through the contig Reader and extended.
// The caller freezes idx.Seeds.
func refAlignReads(r *pgas.Rank, idx *Index, reads []seq.Read, readOffset int, opts Options) ([]Alignment, AlignStats) {
	opts.SeedLen = idx.SeedLen
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
		best, found := refAlignOne(r, idx.Seeds, creader, read, opts, scratch)
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
func refAlignOne(r *pgas.Rank, seeds *dht.Map[seq.Kmer, []SeedHit], creader *dist.Reader[dbg.Contig], read seq.Read, opts Options, scratch *Scratch) (Alignment, bool) {
	var best Alignment
	var bestContig dbg.Contig
	found := false
	scratch.BeginRead(read.Seq)
	tried := scratch.tried
	clear(tried)
	nextSeedAt := 0
	for canon, at := range seq.CanonicalKmers(read.Seq, opts.SeedLen) {
		off, readRC := at.Off, at.RC
		if off < nextSeedAt {
			continue
		}
		nextSeedAt = off + seedStride
		hits, ok := seeds.Get(r, canon)
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
