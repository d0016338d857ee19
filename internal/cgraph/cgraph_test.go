package cgraph

import (
	"sort"
	"strings"
	"testing"

	"mhmgo/internal/dbg"
	"mhmgo/internal/dist"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// runRefine distributes the given contigs, executes Refine on a fresh
// machine, and returns the refined set as emitted to rank 0, in ContigLess
// order.
func runRefine(t *testing.T, contigs []dbg.Contig, ranks int, opts Options) []dbg.Contig {
	t.Helper()
	m := pgas.NewMachine(pgas.Config{Ranks: ranks})
	var out []dbg.Contig
	m.Run(func(r *pgas.Rank) {
		lo, hi := r.BlockRange(len(contigs))
		cs := dbg.DistributeContigs(r, contigs[lo:hi], dist.Distributed)
		all := Refine(r, cs, opts).Set.Emit(r)
		if r.ID() == 0 {
			sort.Slice(all, func(i, j int) bool { return dbg.ContigLess(all[i], all[j]) })
			out = all
		}
	})
	return out
}

// mkContigs assigns dense IDs to a set of sequences with depths.
func mkContigs(seqs []string, depths []float64) []dbg.Contig {
	out := make([]dbg.Contig, len(seqs))
	for i := range seqs {
		d := 10.0
		if depths != nil {
			d = depths[i]
		}
		out[i] = dbg.Contig{ID: i, Seq: []byte(seqs[i]), Depth: d}
	}
	return out
}

func TestJunctionKey(t *testing.T) {
	c := dbg.Contig{Seq: []byte("ACGTTGCA")}
	k := 5
	left, ok := junctionKey(c, k, 'L')
	if !ok {
		t.Fatal("left junction missing")
	}
	wantL, _ := seq.MustKmer("ACGT").Canonical()
	if left != wantL {
		t.Errorf("left junction = %s, want %s", left.String(), wantL.String())
	}
	right, ok := junctionKey(c, k, 'R')
	if !ok {
		t.Fatal("right junction missing")
	}
	wantR, _ := seq.MustKmer("TGCA").Canonical()
	if right != wantR {
		t.Errorf("right junction = %s, want %s", right.String(), wantR.String())
	}
	if _, ok := junctionKey(dbg.Contig{Seq: []byte("AC")}, 5, 'L'); ok {
		t.Error("short contig should have no junction")
	}
}

func TestBubbleMergingKeepsDeeperArm(t *testing.T) {
	// Two "arms" with identical junctions (identical first and last k-1
	// bases) but one internal difference; the deeper arm must survive.
	k := 5
	arm1 := "ACGTT" + "A" + "GGCAT"
	arm2 := "ACGTT" + "C" + "GGCAT"
	contigs := mkContigs([]string{arm1, arm2, "TTTTTTTTTTTTTTTTTTTTTTTTT"}, []float64{30, 5, 20})
	opts := DefaultOptions(k)
	opts.RemoveHair = false
	opts.Prune = false
	opts.Compact = false
	out := runRefine(t, contigs, 3, opts)
	if len(out) != 2 {
		t.Fatalf("survivors = %d, want 2 (one bubble arm merged away): %v", len(out), contigSeqs(out))
	}
	var kept []string
	for _, c := range out {
		kept = append(kept, string(c.Seq))
	}
	joined := strings.Join(kept, ",")
	if !strings.Contains(joined, arm1) {
		t.Errorf("deep arm removed: %v", kept)
	}
	if strings.Contains(joined, arm2) {
		t.Errorf("shallow arm kept: %v", kept)
	}
}

func TestHairRemoval(t *testing.T) {
	k := 5
	// A long "trunk", a short dead-end tip sharing the trunk's right
	// junction, and a deeper continuation from the same junction.
	trunk := "ACGGTTCAGGCATTCCAAGGTCAT"                  // ends with GTCAT
	tip := "GTCAT" + "AC"                                // short, dangling, shallow
	continuation := "GTCAT" + "GGAACCTTGGAACCGGTTACGGAT" // deep continuation
	contigs := mkContigs([]string{trunk, tip, continuation}, []float64{40, 3, 38})
	opts := DefaultOptions(k)
	opts.MergeBubbles = false
	opts.Prune = false
	opts.Compact = false
	out := runRefine(t, contigs, 2, opts)
	for _, c := range out {
		if string(c.Seq) == tip {
			t.Error("tip survived hair removal")
		}
	}
	if len(out) != 2 {
		t.Errorf("survivors = %d, want 2", len(out))
	}
}

func TestHairRemovalSparesIsolatedContigs(t *testing.T) {
	// A short isolated contig (both ends dead) is a legitimate low-coverage
	// fragment, not hair, and must not be removed.
	k := 5
	contigs := mkContigs([]string{"ACGGTTCA", "TTGGCCAATTGGAACCTTAACCGGTT"}, []float64{2, 50})
	opts := DefaultOptions(k)
	opts.MergeBubbles = false
	opts.Prune = false
	opts.Compact = false
	out := runRefine(t, contigs, 2, opts)
	if len(out) != 2 {
		t.Errorf("survivors = %d, want 2", len(out))
	}
}

func TestIterativePruning(t *testing.T) {
	k := 5
	// A deep trunk with a very shallow short branch hanging off a shared
	// junction on both of the branch's ends (so it is not hair but is weak).
	// Junctions are (k-1)=4-mers: TCAT on the left, CATG on the right.
	trunk1 := "ACGGTTCAGGCATTCCAAGGTCAT"
	branch := "TCAT" + "AC" + "CATG" // 10 bases <= 2k, connected on both sides
	trunk2 := "CATG" + "GAACCTTGGAACCGGTTACGGAT"
	altPath := "TCAT" + "GGTTACGGTTAACCGG" + "CATG" // the real continuation
	contigs := mkContigs([]string{trunk1, branch, trunk2, altPath}, []float64{50, 1, 48, 47})
	opts := DefaultOptions(k)
	opts.MergeBubbles = false
	opts.RemoveHair = false
	opts.Compact = false
	out := runRefine(t, contigs, 4, opts)
	if len(out) != 3 {
		t.Errorf("survivors = %d, want 3: %v", len(out), contigSeqs(out))
	}
	for _, c := range out {
		if string(c.Seq) == branch {
			t.Error("weak branch survived pruning")
		}
	}
}

func TestPruningConvergesWithoutRemovals(t *testing.T) {
	k := 5
	contigs := mkContigs([]string{"ACGGTTCAGGCATTCCAAGGTCATAAGGTTCCGGAACCGGTT"}, []float64{30})
	opts := DefaultOptions(k)
	opts.MergeBubbles = false
	opts.RemoveHair = false
	opts.Compact = false
	out := runRefine(t, contigs, 2, opts)
	if len(out) != 1 {
		t.Errorf("survivors = %d, want 1", len(out))
	}
}

func TestCompactionMergesChain(t *testing.T) {
	k := 5
	// Three contigs that overlap by k-1 = 4 bases pairwise and are otherwise
	// unconnected: compaction must merge them into one contig.
	a := "ACGGTTCAGGCA"
	b := "GGCA" + "TTCCAAGGT"
	c := "AGGT" + "CATGGAACCTTGG"
	contigs := mkContigs([]string{a, b, c}, []float64{10, 12, 14})
	opts := DefaultOptions(k)
	opts.MergeBubbles = false
	opts.RemoveHair = false
	opts.Prune = false
	out := runRefine(t, contigs, 3, opts)
	if len(out) != 1 {
		t.Fatalf("compaction produced %d contigs, want 1: %v", len(out), contigSeqs(out))
	}
	want := "ACGGTTCAGGCATTCCAAGGTCATGGAACCTTGG"
	got := string(out[0].Seq)
	if got != want && got != string(seq.ReverseComplement([]byte(want))) {
		t.Errorf("compacted contig = %q, want %q", got, want)
	}
	// Depth must be a weighted mean within the input range.
	if out[0].Depth < 10 || out[0].Depth > 14 {
		t.Errorf("compacted depth = %v", out[0].Depth)
	}
}

func TestCompactionRespectsAmbiguousJunctions(t *testing.T) {
	k := 5
	// Junction GCAT (4-mer) has three attachments: no compaction through it.
	a := "ACGGTTCAGGCAT"
	b := "GCAT" + "TCCAAGGTCAT"
	c := "GCAT" + "AAGGCCTTAAGG"
	contigs := mkContigs([]string{a, b, c}, nil)
	opts := DefaultOptions(k)
	opts.MergeBubbles = false
	opts.RemoveHair = false
	opts.Prune = false
	out := runRefine(t, contigs, 2, opts)
	if len(out) != 3 {
		t.Errorf("ambiguous junction was compacted: %d contigs", len(out))
	}
	// Nothing was merged: the survivors are the inputs, in either
	// orientation.
	for _, got := range out {
		s, rc := string(got.Seq), string(seq.ReverseComplement(got.Seq))
		if s != a && s != b && s != c && rc != a && rc != b && rc != c {
			t.Errorf("contig %q is not one of the inputs", s)
		}
	}
}

func contigSeqs(cs []dbg.Contig) []string {
	var out []string
	for _, c := range cs {
		out = append(out, string(c.Seq))
	}
	return out
}

func TestRefineRankIndependence(t *testing.T) {
	k := 5
	contigs := mkContigs([]string{
		"ACGGTTCAGGCA",
		"AGGCA" + "TTCCAAGGT",
		"AAGGT" + "CATGGAACCTTGG",
		"ACGTT" + "A" + "GGCTT",
		"ACGTT" + "C" + "GGCTT",
		"GGCTT" + "AC",
	}, []float64{10, 12, 14, 30, 5, 2})
	opts := DefaultOptions(k)
	base := runRefine(t, contigs, 1, opts)
	for _, ranks := range []int{2, 4, 7} {
		got := runRefine(t, contigs, ranks, opts)
		if len(got) != len(base) {
			t.Fatalf("ranks=%d: %d contigs vs %d", ranks, len(got), len(base))
		}
		for i := range got {
			if string(got[i].Seq) != string(base[i].Seq) {
				t.Errorf("ranks=%d: contig %d differs", ranks, i)
			}
		}
	}
}

func TestDefaultOptions(t *testing.T) {
	opts := DefaultOptions(21)
	if hairMaxLen(opts.K) != 42 || !opts.Prune || !opts.MergeBubbles || !opts.Compact {
		t.Errorf("unexpected defaults: %+v", opts)
	}
}
