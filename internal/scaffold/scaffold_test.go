package scaffold

import (
	"math/rand"
	"strings"
	"testing"

	"mhmgo/internal/aligner"
	"mhmgo/internal/dbg"
	"mhmgo/internal/dist"
	"mhmgo/internal/hmm"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// makePairs produces innie paired-end reads tiling a genome.
func makePairs(g string, readLen, insert, step int) []seq.Read {
	var reads []seq.Read
	for start := 0; start+insert <= len(g); start += step {
		fwd := g[start : start+readLen]
		rev := string(seq.ReverseComplement([]byte(g[start+insert-readLen : start+insert])))
		reads = append(reads,
			seq.Read{ID: "p/1", Seq: []byte(fwd)},
			seq.Read{ID: "p/2", Seq: []byte(rev)},
		)
	}
	return reads
}

func runScaffold(t *testing.T, contigs []dbg.Contig, reads []seq.Read, ranks int, opts Options) Result {
	t.Helper()
	res, _ := runScaffoldStats(t, contigs, reads, ranks, opts)
	return res
}

// runScaffoldStats is runScaffold that also returns what each rank charged
// during Run.
func runScaffoldStats(t *testing.T, contigs []dbg.Contig, reads []seq.Read, ranks int, opts Options) (Result, []pgas.CommStats) {
	t.Helper()
	m := pgas.NewMachine(pgas.Config{Ranks: ranks})
	aopts := aligner.DefaultOptions(15)
	var res Result
	charged := make([]pgas.CommStats, ranks)
	m.Run(func(r *pgas.Rank) {
		clo, chi := r.BlockRange(len(contigs))
		cs := dbg.DistributeContigs(r, contigs[clo:chi], dist.Distributed)
		idx := aligner.BuildIndex(r, cs, aopts)
		lo, hi := r.PairBlockRange(len(reads))
		aligns, _ := aligner.AlignReads(r, idx, reads[lo:hi], lo, aopts)
		before := r.Stats()
		got := Run(r, cs, reads[lo:hi], lo, aligns, opts)
		after := r.Stats()
		charged[r.ID()] = pgas.CommStats{
			RemoteGets:  after.RemoteGets - before.RemoteGets,
			CacheMisses: after.CacheMisses - before.CacheMisses,
		}
		if r.ID() == 0 {
			res = got
		}
	})
	return res, charged
}

// testGenome is long enough for several contigs and an insert of 60.
func testGenome() string {
	comm := sim.GenerateCommunity(sim.CommunityConfig{NumGenomes: 1, MeanGenomeLen: 900, RRNALen: 100, Seed: 77, StrainFraction: 0})
	return string(comm.Genomes[0].Seq)
}

func TestSpanLinksJoinNeighboringContigs(t *testing.T) {
	g := testGenome()
	// Two contigs covering the genome with a 20-base gap between them.
	c0 := dbg.Contig{ID: 0, Seq: []byte(g[0:400]), Depth: 20}
	c1 := dbg.Contig{ID: 1, Seq: []byte(g[420:820]), Depth: 20}
	reads := makePairs(g, 40, 100, 3)
	opts := DefaultOptions(15, 100)
	res := runScaffold(t, []dbg.Contig{c0, c1}, reads, 3, opts)
	if len(res.Scaffolds) != 1 {
		t.Fatalf("got %d scaffolds, want 1 joined scaffold", len(res.Scaffolds))
	}
	sc := res.Scaffolds[0]
	if len(sc.ContigIDs) != 2 {
		t.Fatalf("scaffold contains %v contigs", sc.ContigIDs)
	}
	// The ends do not overlap, so gap closing leaves the gap open, filled
	// with Ns to the span links' estimate of the true 20 bases.
	if n := strings.Count(string(sc.Seq), "N"); n < 10 || n > 30 {
		t.Errorf("unclosed gap filled with %d Ns, want about 20", n)
	}
	if sc.Gaps != 1 {
		t.Errorf("Gaps = %d, want 1", sc.Gaps)
	}
	// The scaffold must be roughly the genome length.
	if sc.Len() < 780 || sc.Len() > 860 {
		t.Errorf("scaffold length %d, expected near 820", sc.Len())
	}
}

func TestGapClosingSplicesOverlappingContigs(t *testing.T) {
	g := testGenome()
	// Two contigs overlapping by 30 bases: gap closing should splice them.
	c0 := dbg.Contig{ID: 0, Seq: []byte(g[0:430]), Depth: 20}
	c1 := dbg.Contig{ID: 1, Seq: []byte(g[400:820]), Depth: 20}
	reads := makePairs(g, 40, 100, 3)
	opts := DefaultOptions(15, 100)
	res := runScaffold(t, []dbg.Contig{c0, c1}, reads, 2, opts)
	if len(res.Scaffolds) != 1 {
		t.Fatalf("got %d scaffolds, want 1", len(res.Scaffolds))
	}
	sc := res.Scaffolds[0]
	if res.GapsClosed != 1 || sc.GapsClosed != 1 {
		t.Errorf("gap was not closed: %+v", res)
	}
	got := string(sc.Seq)
	want := g[0:820]
	if got != want && got != string(seq.ReverseComplement([]byte(want))) {
		t.Errorf("spliced scaffold (len %d) does not reconstruct the genome segment (len %d)", len(got), len(want))
	}
}

func TestReverseOrientedContigIsFlipped(t *testing.T) {
	g := testGenome()
	c0 := dbg.Contig{ID: 0, Seq: []byte(g[0:400]), Depth: 20}
	// The second contig is stored reverse-complemented.
	c1 := dbg.Contig{ID: 1, Seq: seq.ReverseComplement([]byte(g[420:820])), Depth: 20}
	reads := makePairs(g, 40, 100, 3)
	opts := DefaultOptions(15, 100)
	res := runScaffold(t, []dbg.Contig{c0, c1}, reads, 2, opts)
	if len(res.Scaffolds) != 1 || len(res.Scaffolds[0].ContigIDs) != 2 {
		t.Fatalf("reverse-oriented contig not scaffolded: %+v", summarize(res))
	}
	// The scaffold with Ns removed must match the genome with the gap cut out.
	noN := strings.ReplaceAll(string(res.Scaffolds[0].Seq), "N", "")
	want := g[0:400] + g[420:820]
	if noN != want && noN != string(seq.ReverseComplement([]byte(want))) {
		t.Error("flipped contig not correctly oriented in scaffold")
	}
}

func summarize(res Result) []string {
	var out []string
	for _, s := range res.Scaffolds {
		out = append(out, string(rune('0'+len(s.ContigIDs))))
	}
	return out
}

func TestWeakLinksRejected(t *testing.T) {
	g := testGenome()
	c0 := dbg.Contig{ID: 0, Seq: []byte(g[0:400]), Depth: 20}
	c1 := dbg.Contig{ID: 1, Seq: []byte(g[420:820]), Depth: 20}
	// Very sparse read sampling: too few pairs to support a link.
	reads := makePairs(g, 40, 100, 400)
	opts := DefaultOptions(15, 100)
	res := runScaffold(t, []dbg.Contig{c0, c1}, reads, 2, opts)
	if res.AcceptedLinks != 0 {
		t.Errorf("weak links were accepted: %+v", res)
	}
	if len(res.Scaffolds) != 2 {
		t.Errorf("contigs should remain separate scaffolds, got %d", len(res.Scaffolds))
	}
}

func TestRepeatSuspension(t *testing.T) {
	g1 := testGenome()
	comm2 := sim.GenerateCommunity(sim.CommunityConfig{NumGenomes: 1, MeanGenomeLen: 900, RRNALen: 100, Seed: 99, StrainFraction: 0})
	g2 := string(comm2.Genomes[0].Seq)
	// A short shared repeat sits between unique flanks in two genomes.
	repeat := g1[350:420]
	gen1 := g1[0:350] + repeat + g1[420:800]
	gen2 := g2[0:350] + repeat + g2[420:800]
	contigs := []dbg.Contig{
		{ID: 0, Seq: []byte(gen1[0:350]), Depth: 20},
		{ID: 1, Seq: []byte(repeat), Depth: 40},
		{ID: 2, Seq: []byte(gen1[420:800]), Depth: 20},
		{ID: 3, Seq: []byte(gen2[0:350]), Depth: 20},
		{ID: 4, Seq: []byte(gen2[420:800]), Depth: 20},
	}
	reads := append(makePairs(gen1, 40, 100, 3), makePairs(gen2, 40, 100, 3)...)
	opts := DefaultOptions(15, 100)
	res := runScaffold(t, contigs, reads, 4, opts)
	// The repeat has competing links on both ends, so it is suspended: no
	// chain is seeded from it or runs through it.
	for _, sc := range res.Scaffolds {
		if holds(sc, repeat) {
			t.Errorf("suspended repeat was traversed: scaffold of %d contigs holds it", len(sc.ContigIDs))
		}
	}
	// The repeat must not glue the two genomes into one scaffold.
	for _, sc := range res.Scaffolds {
		has1 := holds(sc, gen1[0:350]) || holds(sc, gen1[420:800])
		has2 := holds(sc, gen2[0:350]) || holds(sc, gen2[420:800])
		if has1 && has2 {
			t.Errorf("scaffold mixes the two genomes: %v", sc.ContigIDs)
		}
	}
}

// holds reports whether the scaffold contains s in either orientation.
func holds(sc Scaffold, s string) bool {
	return strings.Contains(string(sc.Seq), s) || strings.Contains(string(sc.Seq), string(seq.ReverseComplement([]byte(s))))
}

// TestRRNAHitsCounted: a contig matching the rRNA profile is an HMM hit,
// and an HMM hit's end stays extendable despite competing links. The hub
// contig carries the marker and two genomes continue it into two short
// contigs, so its right end has two competing links: without the profile the
// hub's chain stops there, with it the hub is scaffolded with one partner.
func TestRRNAHitsCounted(t *testing.T) {
	comm := sim.GenerateCommunity(sim.CommunityConfig{NumGenomes: 1, MeanGenomeLen: 900, RRNALen: 150, RRNADivergence: 0.0, Seed: 13, StrainFraction: 0})
	profile := hmm.BuildProfile([][]byte{comm.RRNAMarker}, 0.9)
	rng := rand.New(rand.NewSource(14))
	hub := randomBases(rng, 200) + string(comm.RRNAMarker)
	b, c := randomBases(rng, 120), randomBases(rng, 120)
	g1 := hub + randomBases(rng, 20) + b
	g2 := hub + randomBases(rng, 20) + c
	contigs := []dbg.Contig{
		{ID: 0, Seq: []byte(hub), Depth: 40},
		{ID: 1, Seq: []byte(b), Depth: 20},
		{ID: 2, Seq: []byte(c), Depth: 20},
	}
	reads := append(makePairs(g1, 40, 100, 3), makePairs(g2, 40, 100, 3)...)
	opts := DefaultOptions(15, 100)
	if res := runScaffold(t, contigs, reads, 2, opts); len(res.Scaffolds) != 3 {
		t.Errorf("without a profile: %d scaffolds, want 3 (competing links stop the hub)", len(res.Scaffolds))
	}
	opts.RRNAProfile = profile
	res := runScaffold(t, contigs, reads, 2, opts)
	if len(res.Scaffolds) != 2 || len(res.Scaffolds[0].ContigIDs) != 2 {
		t.Fatalf("with the profile: scaffolds %v, want the hub joined to one partner", summarize(res))
	}
	if !holds(res.Scaffolds[0], hub) {
		t.Error("the joined scaffold does not hold the hub")
	}
}

// randomBases returns n uniformly random bases.
func randomBases(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = "ACGT"[rng.Intn(4)]
	}
	return string(b)
}

func TestScaffoldRankIndependence(t *testing.T) {
	g := testGenome()
	contigs := []dbg.Contig{
		{ID: 0, Seq: []byte(g[0:300]), Depth: 20},
		{ID: 1, Seq: []byte(g[320:600]), Depth: 20},
		{ID: 2, Seq: []byte(g[620:850]), Depth: 20},
	}
	reads := makePairs(g, 40, 100, 3)
	opts := DefaultOptions(15, 100)
	base := runScaffold(t, contigs, reads, 1, opts)
	for _, ranks := range []int{2, 4, 6} {
		got := runScaffold(t, contigs, reads, ranks, opts)
		if len(got.Scaffolds) != len(base.Scaffolds) {
			t.Fatalf("ranks=%d: %d scaffolds vs %d", ranks, len(got.Scaffolds), len(base.Scaffolds))
		}
		for i := range got.Scaffolds {
			if string(got.Scaffolds[i].Seq) != string(base.Scaffolds[i].Seq) {
				t.Errorf("ranks=%d: scaffold %d differs", ranks, i)
			}
		}
	}
}

func TestSpliceOverlap(t *testing.T) {
	if _, ok := spliceOverlap([]byte("AAACGT"), []byte("ACGTTT"), 3, 10); !ok {
		t.Error("overlap of 4 should splice")
	}
	if _, ok := spliceOverlap([]byte("AAACGT"), []byte("GGGTTT"), 3, 10); ok {
		t.Error("non-overlapping sequences should not splice")
	}
	joined, _ := spliceOverlap([]byte("AAACGT"), []byte("ACGTTT"), 3, 10)
	if string(joined) != "AAACGTTT" {
		t.Errorf("splice = %q", joined)
	}
}

// TestRunRemoteGetsPerOwner: traversal and gap closing read the contigs of a
// rank's components, fetched up front with one vectored get per owner, so
// Run makes at most P-1 remote reads per rank however many contigs a
// component spans, and the scaffolds are the single rank's.
func TestRunRemoteGetsPerOwner(t *testing.T) {
	comm := sim.GenerateCommunity(sim.CommunityConfig{NumGenomes: 1, MeanGenomeLen: 3000, Seed: 78, StrainFraction: 0})
	g := string(comm.Genomes[0].Seq)
	// 200-base contigs with 20-base gaps: one chain of over a dozen contigs.
	var contigs []dbg.Contig
	for lo := 0; lo+200 <= len(g); lo += 220 {
		contigs = append(contigs, dbg.Contig{Seq: []byte(g[lo : lo+200]), Depth: 20})
	}
	reads := makePairs(g, 40, 100, 3)
	opts := DefaultOptions(15, 100)
	base := runScaffold(t, contigs, reads, 1, opts)
	if len(base.Scaffolds) == 0 || len(base.Scaffolds[0].ContigIDs) < 3 {
		t.Fatalf("P=1 built %d scaffolds, the longest joining fewer than 3 contigs: the test exercises no chain", len(base.Scaffolds))
	}
	for _, p := range []int{3, 8} {
		res, charged := runScaffoldStats(t, contigs, reads, p, opts)
		var totalGets, totalItems uint64
		for rank, c := range charged {
			if c.RemoteGets > uint64(p-1) {
				t.Errorf("P=%d: rank %d made %d remote reads, want at most one per other rank", p, rank, c.RemoteGets)
			}
			totalGets += c.RemoteGets
			totalItems += c.CacheMisses
		}
		if totalItems <= totalGets {
			t.Errorf("P=%d: %d remote gets fetched %d contigs: no get carried more than one, the test exercises nothing", p, totalGets, totalItems)
		}
		if len(res.Scaffolds) != len(base.Scaffolds) {
			t.Fatalf("P=%d: %d scaffolds vs %d at P=1", p, len(res.Scaffolds), len(base.Scaffolds))
		}
		for i := range res.Scaffolds {
			if string(res.Scaffolds[i].Seq) != string(base.Scaffolds[i].Seq) {
				t.Errorf("P=%d: scaffold %d differs from P=1's", p, i)
			}
		}
	}
}
