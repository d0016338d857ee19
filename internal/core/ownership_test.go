package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mhmgo/internal/aligner"
	"mhmgo/internal/dist"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// outputFingerprint flattens the final sequences into one comparable blob.
func outputFingerprint(res *Result) string {
	var buf bytes.Buffer
	for _, s := range res.FinalSequences() {
		buf.Write(s)
		buf.WriteByte('\n')
	}
	return buf.String()
}

// determinismMemo carries first-execution results across -count=2 reruns of
// the test binary: package-level state survives between the repeated
// executions of the same test within one process.
var determinismMemo = map[int]string{}

// TestPipelineDeterministicAcrossRuns runs the full pipeline at P in
// {1, 3, 8} (including a non-power-of-two rank count) and asserts that the
// scaffold output and the simulated seconds are identical every time the
// test executes. Run with -count=2 (as CI does) to compare two full
// executions; within one execution the pipeline additionally runs twice per
// P. Every source of run-to-run variance — goroutine interleavings in the
// exchanges' deposits, work-sharing claim order, cache-access ordering — must be
// invisible in both the assembly and the simulated clock.
func TestPipelineDeterministicAcrossRuns(t *testing.T) {
	_, reads := smallCommunity(t, 2, 12)
	for _, ranks := range []int{1, 3, 8} {
		run := func() string {
			res, err := Assemble(reads, testConfig(ranks))
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("scaffolds=%d sim=%.17g\n%s",
				len(res.Scaffolds), res.SimSeconds, outputFingerprint(res))
		}
		got := run()
		if again := run(); again != got {
			t.Errorf("P=%d: two in-process runs differ:\n%.200s\nvs\n%.200s", ranks, got, again)
		}
		if prev, ok := determinismMemo[ranks]; ok {
			if prev != got {
				t.Errorf("P=%d: output or simulated seconds changed between -count reruns:\n%.200s\nvs\n%.200s",
					ranks, prev, got)
			}
		} else {
			determinismMemo[ranks] = got
		}
	}
}

// TestDistributedOwnershipLean is the acceptance test of distributed
// ownership:
//
//  1. At P in {1, 3, 8}, scaffold member IDs index Result.Contigs and every
//     scaffold begins with its first member contig.
//  2. At P=64, the worst rank's peak resident collective bytes are pinned,
//     and stay at least 4x below what the gather-to-all pattern cost.
func TestDistributedOwnershipLean(t *testing.T) {
	_, reads := smallCommunity(t, 2, 12)
	run := func(ranks int) *Result {
		res, err := Assemble(reads, testConfig(ranks))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, ranks := range []int{1, 3, 8} {
		res := run(ranks)
		if len(res.Scaffolds) == 0 {
			t.Fatalf("P=%d: no scaffolds produced", ranks)
		}
		// Scaffold member IDs must index Result.Contigs (the emitted,
		// re-sorted numbering), not the pipeline-internal shard numbering:
		// each scaffold starts with its first member contig verbatim (in
		// one orientation or the other).
		for _, sc := range res.Scaffolds {
			for _, id := range sc.ContigIDs {
				if id < 0 || id >= len(res.Contigs) {
					t.Fatalf("P=%d: scaffold %d references contig %d of %d", ranks, sc.ID, id, len(res.Contigs))
				}
			}
			first := res.Contigs[sc.ContigIDs[0]].Seq
			if len(sc.Seq) < len(first) {
				t.Fatalf("P=%d: scaffold %d shorter than its first member contig", ranks, sc.ID)
			}
			prefix := string(sc.Seq[:len(first)])
			if prefix != string(first) && prefix != string(seq.ReverseComplement(first)) {
				t.Errorf("P=%d: scaffold %d does not begin with its first member contig", ranks, sc.ID)
			}
		}
	}

	// The memory assertion runs on a wider, flatter community: with P=64 far
	// above the contig count of a two-genome toy, ownership (and the reads
	// localized to it) cannot spread. Two dozen small genomes give the owner
	// function enough granularity for the footprint to be about ownership,
	// not about running 64 ranks on 4 contigs.
	comm64 := sim.GenerateCommunity(sim.CommunityConfig{
		NumGenomes:     24,
		MeanGenomeLen:  2000,
		LenVariation:   0.2,
		AbundanceSigma: 0.3,
		RRNALen:        150,
		StrainFraction: 0,
		Seed:           71,
	})
	reads = sim.SimulateReads(comm64, sim.ReadConfig{
		ReadLen: 80, InsertSize: 220, InsertStd: 15,
		ErrorRate: 0.005, Coverage: 8, Seed: 72,
	})

	const (
		p = 64
		// The meter is deterministic, so the peak is pinned exactly. It was
		// re-captured (from 114929) when de Bruijn traversal's path-start
		// claims became an exchange, whose received batch is resident until
		// it is folded into the vertices. It was re-captured (from 119583)
		// when read localization began block-partitioning pairs in contig
		// order: the peak was the pairs piled onto the owners of a few long
		// contigs, and no rank now receives more than its block. It rose
		// (from 60452) when de Bruijn traversal stopped walking paths and
		// began assembling each contig at one start from one piece per
		// k-mer: the worst rank receives 4,387 pieces of 17 bytes for the
		// contigs it emits, which the walks read one Get at a time.
		// Each pointer-doubling round's records are released once applied.
		// It fell (from 89830) when contigs stopped being striped over the
		// ranks by size and stayed on their content-hash owner: other ranks
		// hold other contigs, and the worst rank's peak moved with them.
		// It fell (from 89524, the pieces a start received) when the k-mer
		// tables came to be owned by minimizer: the graph's vertices sit on
		// other ranks, most path-start claims stay on their rank without
		// entering the exchange, and the worst rank's peak is now the
		// contig k-mers k-mer merge's flush delivers to it.
		// It rose (from 74307) when de Bruijn traversal began emitting each
		// path at the start first by (index, owner) instead of at the
		// smaller ID, which handed every path to the lower of its two
		// starts' ranks: the worst rank's peak is again the pieces it
		// receives for the paths it emits, now on rank 63 at k=33, which
		// under ID order emitted only paths with both starts on it.
		wantPeak = 105140
		// What the same input peaked at, at commit ed1df1b, with every
		// pipeline collection charged as a gather-to-all — the last commit
		// that could still run that pattern (as a Config switch, since
		// deleted) and whose version of this test measured both.
		gatherToAllPeak = 614723
	)
	got := run(p).Stats.PeakResidentBytes
	if got != wantPeak {
		t.Errorf("P=%d peak resident bytes = %d, want %d", p, got, wantPeak)
	}
	if 4*got > gatherToAllPeak {
		t.Errorf("P=%d peak resident bytes %d exceed a quarter of the recorded gather-to-all peak %d", p, got, gatherToAllPeak)
	}
}

// TestLocalizePairsBalancesContigRuns: read localization keeps every pair
// aligned to one contig in one contiguous run of the global read order, runs
// in contig order and each run in (source rank, local index) order, and
// block-partitions that order so no rank holds more than ceil(pairs/P) pairs.
// A rank's unaligned pairs follow the contigs it owns. Mates stay adjacent, no
// read is lost or duplicated, the offsets tile the global numbering, and the
// result does not depend on Workers. P=64 exceeds the pair count, so some
// ranks end up holding nothing.
func TestLocalizePairsBalancesContigRuns(t *testing.T) {
	const nPairs = 50
	rng := rand.New(rand.NewSource(29))
	// Per pair: which mates align (0 none, 1 first, 2 second, 3 both) and a
	// contig index per mate, skewed so one contig draws half the pairs.
	mates := make([]int, nPairs)
	pick := make([][2]int, nPairs)
	for i := range mates {
		mates[i] = rng.Intn(4)
		for m := range pick[i] {
			if pick[i][m] = rng.Intn(6); rng.Intn(2) == 0 {
				pick[i][m] = 0
			}
		}
	}
	var reads []seq.Read
	for i := 0; i < nPairs; i++ {
		reads = append(reads, seq.Read{ID: fmt.Sprintf("p%d/1", i), Seq: []byte("ACGTACGT")},
			seq.Read{ID: fmt.Sprintf("p%d/2", i), Seq: []byte("TTGGCCAA")})
	}
	reads = append(reads, seq.Read{ID: "tail", Seq: []byte("ACGT")})

	for _, p := range []int{1, 3, 16, 64} {
		// Contig j is owned by rank (5j) mod p; a pair follows its last
		// aligned mate.
		contigID := func(j int) int { return dist.ID(5*j%p, j) }
		pairContig := make([]int, nPairs)
		for i := range pairContig {
			pairContig[i] = unaligned
			for m := 0; m < 2; m++ {
				if mates[i]&(1<<m) != 0 {
					pairContig[i] = contigID(pick[i][m])
				}
			}
		}
		localize := func(workers int) ([][]seq.Read, []int) {
			held, offsets := make([][]seq.Read, p), make([]int, p)
			pgas.NewMachine(pgas.Config{Ranks: p, Workers: workers}).Run(func(r *pgas.Rank) {
				lo, hi := r.PairBlockRange(len(reads))
				var aligns []aligner.Alignment
				for g := lo; g < hi && g/2 < nPairs; g++ {
					if m := g % 2; mates[g/2]&(1<<m) != 0 {
						aligns = append(aligns, aligner.Alignment{ReadIdx: g, ContigID: contigID(pick[g/2][m])})
					}
				}
				held[r.ID()], offsets[r.ID()], _ = localizePairs(r, reads[lo:hi], lo, len(reads)/2, aligns)
			})
			return held, offsets
		}
		held, offsets := localize(1)
		if held4, offsets4 := localize(4); !reflect.DeepEqual(held, held4) || !reflect.DeepEqual(offsets, offsets4) {
			t.Errorf("P=%d: Workers=1 and Workers=4 localize differently", p)
		}

		block := (nPairs + p - 1) / p
		var global []seq.Read
		for rank, got := range held {
			if offsets[rank] != len(global) {
				t.Errorf("P=%d rank %d: read offset %d, want %d", p, rank, offsets[rank], len(global))
			}
			limit := 2 * block
			if rank == p-1 {
				limit++ // the trailing unpaired read
			}
			if len(got) > limit {
				t.Errorf("P=%d rank %d holds %d reads, over its block of %d", p, rank, len(got), limit)
			}
			global = append(global, got...)
		}
		if len(global) != len(reads) || global[len(global)-1].ID != "tail" {
			t.Fatalf("P=%d: %d reads after localization, want %d ending with the trailing read", p, len(global), len(reads))
		}
		// The expected global pair order: owner by owner, each owner's
		// contigs in ID order, then the unaligned pairs of that rank; within
		// a run, source rank and local index, which is the input order. So
		// each contig's pairs form one contiguous run.
		srcRank := func(i int) int {
			for rank := 0; ; rank++ {
				if lo, hi := pgas.PairBlockRange(len(reads), p, rank); 2*i >= lo && 2*i < hi {
					return rank
				}
			}
		}
		want := make([]int, nPairs)
		for i := range want {
			want[i] = i
		}
		key := func(i int) [3]int {
			if c := pairContig[i]; c != unaligned {
				owner, _ := dist.Locate(c)
				return [3]int{owner, c, i}
			}
			return [3]int{srcRank(i), unaligned, i}
		}
		slices.SortFunc(want, func(a, b int) int {
			ka, kb := key(a), key(b)
			return slices.Compare(ka[:], kb[:])
		})
		for pos, i := range want {
			r1, r2 := global[2*pos], global[2*pos+1]
			if r1.ID != fmt.Sprintf("p%d/1", i) || r2.ID != fmt.Sprintf("p%d/2", i) {
				t.Fatalf("P=%d: global pair %d is (%s, %s), want pair p%d", p, pos, r1.ID, r2.ID, i)
			}
		}
	}
}
