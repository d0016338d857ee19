package aligner

import (
	"strings"
	"testing"

	"mhmgo/internal/dbg"
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
// returns the distributed set plus a sequence->global-ID map (identical on
// every rank), since distribution reassigns IDs.
func distributeTestContigs(r *pgas.Rank, contigs []dbg.Contig) (*dbg.ContigSet, map[string]int) {
	lo, hi := r.BlockRange(len(contigs))
	cs := dbg.DistributeContigs(r, contigs[lo:hi], dist.Distributed)
	local := map[string]int{}
	cs.ForEachLocal(r, func(_ int, c dbg.Contig) { local[string(c.Seq)] = c.ID })
	ids := pgas.ReduceAll(r, local, 0, func(parts []map[string]int) map[string]int {
		merged := map[string]int{}
		for _, part := range parts {
			for s, id := range part {
				merged[s] = id
			}
		}
		return merged
	})
	return cs, ids
}

func TestBuildIndexCoversAllSeeds(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 3})
	contigs := testContigs()
	opts := DefaultOptions(15)
	var idx *Index
	ids := map[string]int{}
	m.Run(func(r *pgas.Rank) {
		cs, idMap := distributeTestContigs(r, contigs)
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
	m.Run(func(r *pgas.Rank) {
		cs, idMap := distributeTestContigs(r, contigs)
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
	opts.MinIdentity = 0.85
	m.Run(func(r *pgas.Rank) {
		cs, _ := distributeTestContigs(r, contigs)
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
	opts.MinIdentity = 0.99
	m.Run(func(r *pgas.Rank) {
		cs, _ := distributeTestContigs(r, contigs)
		idx := BuildIndex(r, cs, opts)
		readSeq := append([]byte(nil), contigs[0].Seq[0:40]...)
		for i := 20; i < 30; i++ {
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

	run := func(useCache bool) (float64, AlignStats) {
		m := pgas.NewMachine(pgas.Config{Ranks: 4, RanksPerNode: 1})
		opts := DefaultOptions(21)
		opts.UseCache = useCache
		var stats AlignStats
		res := m.Run(func(r *pgas.Rank) {
			cs, _ := distributeTestContigs(r, contigs)
			idx := BuildIndex(r, cs, opts)
			lo, hi := r.BlockRange(len(reads))
			_, s := AlignReads(r, idx, reads[lo:hi], lo, opts)
			if r.ID() == 0 {
				stats = s
			}
		})
		return res.SimSeconds, stats
	}
	cachedTime, cachedStats := run(true)
	uncachedTime, _ := run(false)
	if cachedStats.CacheHitRate <= 0.1 {
		t.Errorf("cache hit rate %v too low", cachedStats.CacheHitRate)
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
		cs, _ := distributeTestContigs(r, contigs)
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
