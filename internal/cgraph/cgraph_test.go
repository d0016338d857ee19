package cgraph

import (
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
	left, fwd, ok := junctionKey(c, k, 'L')
	if !ok || !fwd {
		t.Fatal("left junction missing")
	}
	wantL, _ := seq.MustKmer("ACGT").Canonical()
	if left != wantL {
		t.Errorf("left junction = %s, want %s", left.String(), wantL.String())
	}
	// Both ends are palindromes, so each stored (k-1)-mer is its key.
	right, fwd, ok := junctionKey(c, k, 'R')
	if !ok || !fwd {
		t.Fatal("right junction missing")
	}
	wantR, _ := seq.MustKmer("TGCA").Canonical()
	if right != wantR {
		t.Errorf("right junction = %s, want %s", right.String(), wantR.String())
	}
	if _, fwd, ok := junctionKey(dbg.Contig{Seq: []byte("TTGCAA")}, k, 'L'); !ok || fwd {
		t.Error("TTGC is stored as its reverse complement GCAA, not forward")
	}
	if _, _, ok := junctionKey(dbg.Contig{Seq: []byte("AC")}, 5, 'L'); ok {
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

// refGraph is the one-sided refinement path the owner-computes passes
// replaced, kept as their oracle: every pass reads the frozen junction index
// with Map.Get for both ends of every examined contig, filters the refs by a
// liveness mask every rank reads, fetches neighbour contigs through a
// dist.Reader, routes removal proposals to the contigs' owners, and
// compaction walks a second, survivors-only frozen index.
type refGraph struct {
	k        int
	cs       *dbg.ContigSet
	alive    [][]bool
	junction *dht.Map[seq.Kmer, []endRef]
	creader  *dist.Reader[dbg.Contig]
	// steps counts the members the calling rank's chain walks took in.
	steps int
}

// refRefine runs the oracle over cs and returns the refined set and the
// number of members the calling rank's chain walks took in. Collective.
func refRefine(r *pgas.Rank, cs *dbg.ContigSet, opts Options) (*dbg.ContigSet, int) {
	alive := pgas.Shared(r, func() [][]bool { return make([][]bool, r.NRanks()) })
	shard := make([]bool, cs.Len(r))
	for i := range shard {
		shard[i] = true
	}
	alive[r.ID()] = shard
	r.Barrier()
	g := &refGraph{k: opts.K, cs: cs, alive: alive, creader: cs.NewReader(r, 1<<16)}
	g.junction = g.index(r, nil)
	if opts.MergeBubbles {
		g.mergeBubbles(r)
	}
	if opts.RemoveHair {
		g.removeHair(r)
	}
	if opts.Prune {
		g.prune(r)
	}
	if opts.Compact {
		out := g.compact(r)
		cs.Release(r)
		return out, g.steps
	}
	i := -1
	cs.FilterLocal(r, func(dbg.Contig) bool { i++; return shard[i] })
	dbg.RenumberContigs(r, cs)
	return cs, 0
}

func (g *refGraph) isAlive(id int) bool {
	owner, idx := dist.Locate(id)
	return g.alive[owner][idx]
}

// index builds a frozen junction index of the local contigs keep selects
// (nil keeps all).
func (g *refGraph) index(r *pgas.Rank, keep func(i int) bool) *dht.Map[seq.Kmer, []endRef] {
	idx := dht.NewMapCollective[seq.Kmer, []endRef](r, seq.Kmer.Hash, 32)
	u := idx.NewUpdater(r, func(existing, update []endRef, _ bool) []endRef {
		return append(existing, update...)
	}, 256, true)
	g.cs.ForEachLocal(r, func(i int, c dbg.Contig) {
		if keep != nil && !keep(i) {
			return
		}
		for _, end := range []byte{'L', 'R'} {
			if key, _, ok := junctionKey(c, g.k, end); ok {
				u.Update(key, []endRef{{ContigID: c.ID, End: end}})
			}
		}
	})
	u.Flush()
	r.Barrier()
	idx.Freeze()
	return idx
}

// refs reads the junction list of one of c's ends.
func (g *refGraph) refs(r *pgas.Rank, c dbg.Contig, end byte) ([]endRef, bool) {
	key, _, ok := junctionKey(c, g.k, end)
	if !ok {
		return nil, false
	}
	refs, _ := g.junction.Get(r, key)
	return refs, true
}

// neighborsOf returns the live refs of other contigs at c's two junctions.
func (g *refGraph) neighborsOf(r *pgas.Rank, c dbg.Contig) (left, right []endRef) {
	collect := func(end byte) []endRef {
		refs, _ := g.refs(r, c, end)
		var out []endRef
		for _, ref := range refs {
			if ref.ContigID != c.ID && g.isAlive(ref.ContigID) {
				out = append(out, ref)
			}
		}
		return out
	}
	return collect('L'), collect('R')
}

// applyRemovals routes removal proposals to the contigs' owners, who mark
// them dead, and returns how many of the calling rank's contigs died.
func (g *refGraph) applyRemovals(r *pgas.Rank, proposals []int) int {
	mine := dist.Exchange(r, proposals, ownerOf, func(int) int { return 8 })
	n := 0
	shard := g.alive[r.ID()]
	for _, id := range mine {
		if _, idx := dist.Locate(id); shard[idx] {
			shard[idx] = false
			n++
		}
	}
	r.Barrier()
	return n
}

func (g *refGraph) mergeBubbles(r *pgas.Rank) {
	var removals []int
	g.cs.ForEachLocal(r, func(i int, c dbg.Contig) {
		refsL, okL := g.refs(r, c, 'L')
		refsR, okR := g.refs(r, c, 'R')
		if !g.alive[r.ID()][i] || !okL || !okR {
			return
		}
		onRight := make(map[int]bool)
		for _, ref := range refsR {
			onRight[ref.ContigID] = true
		}
		for _, ref := range refsL {
			other := ref.ContigID
			if other == c.ID || !onRight[other] || !g.isAlive(other) {
				continue
			}
			oc := g.creader.Get(other)
			if !similarLength(len(c.Seq), len(oc.Seq), bubbleLenTolerance) {
				continue
			}
			// The shallower arm dies; ContigLess breaks depth ties.
			switch {
			case c.Depth > oc.Depth:
				removals = append(removals, oc.ID)
			case oc.Depth > c.Depth:
				removals = append(removals, c.ID)
			case dbg.ContigLess(c, oc):
				removals = append(removals, oc.ID)
			default:
				removals = append(removals, c.ID)
			}
		}
	})
	r.Barrier()
	g.applyRemovals(r, removals)
}

func (g *refGraph) removeHair(r *pgas.Rank) {
	var removals []int
	g.cs.ForEachLocal(r, func(i int, c dbg.Contig) {
		if !g.alive[r.ID()][i] || len(c.Seq) >= hairMaxLen(g.k) {
			return
		}
		left, right := g.neighborsOf(r, c)
		if (len(left) > 0) == (len(right) > 0) {
			return
		}
		for _, ref := range append(left, right...) {
			if g.creader.Get(ref.ContigID).Depth > c.Depth {
				removals = append(removals, c.ID)
				return
			}
		}
	})
	r.Barrier()
	g.applyRemovals(r, removals)
}

func (g *refGraph) prune(r *pgas.Rank) {
	maxDepth := 0.0
	g.cs.ForEachLocal(r, func(_ int, c dbg.Contig) { maxDepth = max(maxDepth, c.Depth) })
	maxDepth = pgas.AllReduce(r, maxDepth, pgas.ReduceMax)
	tau := 1.0
	for round := 0; round < maxPruneRounds && tau < maxDepth; round++ {
		var removals []int
		g.cs.ForEachLocal(r, func(i int, c dbg.Contig) {
			if !g.alive[r.ID()][i] || len(c.Seq) > 2*g.k {
				return
			}
			left, right := g.neighborsOf(r, c)
			refs := append(left, right...)
			var sum float64
			for _, ref := range refs {
				sum += g.creader.Get(ref.ContigID).Depth
			}
			if len(refs) == 0 {
				return
			}
			mean := sum / float64(len(refs))
			if mean != 0 && c.Depth <= min(tau, pruneBeta*mean) {
				removals = append(removals, c.ID)
			}
		})
		r.Barrier()
		if pgas.AllReduce(r, g.applyRemovals(r, removals), pgas.ReduceSum) == 0 {
			break
		}
		tau *= 1 + pruneAlpha
	}
}

// compact walks the chains of the survivors through a survivors-only frozen
// junction index, orienting each partner by comparing sequences.
func (g *refGraph) compact(r *pgas.Rank) *dbg.ContigSet {
	j := g.k - 1
	shard := g.alive[r.ID()]
	g.junction = g.index(r, func(i int) bool { return shard[i] })
	partner := func(o orientedContig, c dbg.Contig) (orientedContig, dbg.Contig, bool) {
		end := byte('R')
		if o.flipped {
			end = 'L'
		}
		refs, ok := g.refs(r, c, end)
		if !ok || len(refs) != 2 {
			return orientedContig{}, dbg.Contig{}, false
		}
		var other endRef
		found := false
		for _, rf := range refs {
			if rf.ContigID != o.id {
				other, found = rf, true
			}
		}
		if !found {
			return orientedContig{}, dbg.Contig{}, false
		}
		suffix := orientedSeq(c, o.flipped)
		suffix = suffix[len(suffix)-j:]
		oc := g.creader.Get(other.ContigID)
		for _, flipped := range []bool{false, true} {
			if s := orientedSeq(oc, flipped); string(s[:j]) == string(suffix) {
				return orientedContig{id: other.ContigID, flipped: flipped}, oc, true
			}
		}
		return orientedContig{}, dbg.Contig{}, false
	}
	var out []dbg.Contig
	g.cs.ForEachLocal(r, func(i int, c dbg.Contig) {
		if !shard[i] {
			return
		}
		for _, flipped := range []bool{false, true} {
			if _, _, ok := partner(orientedContig{id: c.ID, flipped: !flipped}, c); ok {
				continue
			}
			cur, cc := orientedContig{id: c.ID, flipped: flipped}, c
			merged := append([]byte(nil), orientedSeq(cc, flipped)...)
			depthWeight := cc.Depth * float64(len(cc.Seq))
			totalLen := len(cc.Seq)
			visited := map[int]bool{cur.id: true}
			for {
				next, nc, ok := partner(cur, cc)
				if !ok || visited[next.id] {
					break
				}
				merged = append(merged, orientedSeq(nc, next.flipped)[j:]...)
				depthWeight += nc.Depth * float64(len(nc.Seq))
				totalLen += len(nc.Seq)
				visited[next.id] = true
				cur, cc = next, nc
				g.steps++
			}
			if string(merged) <= string(seq.ReverseComplement(merged)) {
				out = append(out, dbg.Contig{Seq: merged, Depth: depthWeight / float64(totalLen)})
			}
		}
	})
	r.Barrier()
	return dbg.DistributeContigs(r, out, dist.Distributed)
}

// randomGraph returns a random contig graph over a small pool of junction
// (k-1)-mers, read in either orientation, so that junctions are shared and
// of every degree. Beside random contigs it plants the shapes the rules and
// the link decision must get right: SNP bubbles (some with arms of equal
// depth and equal length, so the tie fetch runs), contigs whose two ends
// share one junction (hairpins among them), bubbles against such a contig,
// short tips, chains of 1 to 6 contigs and cycles. With k-1 even the pool
// holds a palindromic junction.
func randomGraph(rng *rand.Rand, k int) []string {
	j := k - 1
	randSeq := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
		}
		return string(b)
	}
	pool := make([]string, 4+rng.Intn(8))
	for i := range pool {
		pool[i] = randSeq(j)
	}
	if j%2 == 0 {
		half := randSeq(j / 2)
		pool[0] = half + string(seq.ReverseComplement([]byte(half)))
	}
	rcs := func(s string) string { return string(seq.ReverseComplement([]byte(s))) }
	either := func(s string) string {
		if rng.Intn(2) == 0 {
			return rcs(s)
		}
		return s
	}
	junction := func() string { return either(pool[rng.Intn(len(pool))]) }
	mid := func() string { return randSeq(rng.Intn(3 * k)) }
	var out []string
	for n := 8 + rng.Intn(16); n > 0; n-- {
		switch rng.Intn(8) {
		case 0, 1: // random contig
			out = append(out, junction()+mid()+junction())
		case 2: // SNP bubble: same junctions and length, one base apart
			a, m, b := junction(), randSeq(1+rng.Intn(2*k)), junction()
			p := rng.Intn(len(m))
			m2 := m[:p] + string("ACGT"[(strings.IndexByte("ACGT", m[p])+1+rng.Intn(3))%4]) + m[p+1:]
			out = append(out, either(a+m+b), either(a+m2+b))
		case 3: // both ends at one junction, and a contig of similar length beside it
			a, m := junction(), mid()
			b := a
			if rng.Intn(2) == 0 {
				b = rcs(a)
			}
			out = append(out, either(a+m+b), either(junction()+randSeq(len(m))+a))
		case 4: // short tip
			out = append(out, either(junction()+randSeq(1+rng.Intn(k))))
		case 5, 6: // chain of 1 to 6 contigs, closed into a cycle one time in three
			n := 1 + rng.Intn(6)
			js := make([]string, n+1)
			for i := range js {
				js[i] = randSeq(j)
			}
			if rng.Intn(3) == 0 {
				js[n] = js[0]
			}
			for i := 0; i < n; i++ {
				out = append(out, either(js[i]+mid()+js[i+1]))
			}
		default: // hairpin: a stem and its reverse complement
			stem := junction() + randSeq(rng.Intn(k))
			out = append(out, stem+randSeq(rng.Intn(3))+rcs(stem))
		}
	}
	return out
}

// randomDepths gives each contig a depth from a small set, so that equal
// depths are common, or a distinct one when distinct is set.
func randomDepths(rng *rand.Rand, n int, distinct bool) []float64 {
	levels := []float64{1, 2, 3, 5, 8, 13, 20, 30}
	d := make([]float64, n)
	for i := range d {
		d[i] = levels[rng.Intn(len(levels))]
		if distinct {
			d[i] += float64(i) / float64(n)
		}
	}
	return d
}

// sortedContigs returns the contigs in ContigLess order.
func sortedContigs(cs []dbg.Contig) []dbg.Contig {
	sort.Slice(cs, func(i, j int) bool { return dbg.ContigLess(cs[i], cs[j]) })
	return cs
}

// TestRefineMatchesOneSidedOracle: on random contig graphs, Refine emits
// exactly the contigs (sequences and depths) the one-sided path emits, at
// P = 1, 3 and 16, with each of the four passes on and off, aggregated or
// not.
func TestRefineMatchesOneSidedOracle(t *testing.T) {
	type graphCase struct {
		k       int
		contigs []dbg.Contig
	}
	var graphs []graphCase
	for i := 0; i < 12; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		k := []int{5, 7, 6}[i%3]
		seqs := randomGraph(rng, k)
		graphs = append(graphs, graphCase{k, mkContigs(seqs, randomDepths(rng, len(seqs), false))})
	}
	run := func(contigs []dbg.Contig, ranks int, opts Options, oracle bool) []dbg.Contig {
		m := pgas.NewMachine(pgas.Config{Ranks: ranks, RanksPerNode: 4})
		var out []dbg.Contig
		m.Run(func(r *pgas.Rank) {
			lo, hi := r.BlockRange(len(contigs))
			cs := dbg.DistributeContigs(r, contigs[lo:hi], dist.Distributed)
			var set *dbg.ContigSet
			if oracle {
				set, _ = refRefine(r, cs, opts)
			} else {
				set = Refine(r, cs, opts).Set
			}
			if all := set.Emit(r); r.ID() == 0 {
				out = sortedContigs(all)
			}
		})
		return out
	}
	for gi, gc := range graphs {
		for mask := 0; mask < 16; mask++ {
			// Aggregation changes the charges only; every other graph runs
			// with it off.
			opts := Options{K: gc.k, MergeBubbles: mask&1 != 0, RemoveHair: mask&2 != 0,
				Prune: mask&4 != 0, Compact: mask&8 != 0, Aggregate: gi%2 == 0}
			for _, p := range []int{1, 3, 16} {
				want := run(gc.contigs, p, opts, true)
				got := run(gc.contigs, p, opts, false)
				if len(got) != len(want) {
					t.Fatalf("graph %d k=%d %+v P=%d: %d contigs, oracle %d", gi, gc.k, opts, p, len(got), len(want))
				}
				for i := range got {
					if string(got[i].Seq) != string(want[i].Seq) || got[i].Depth != want[i].Depth {
						t.Fatalf("graph %d k=%d %+v P=%d: contig %d = %s (%v), oracle %s (%v)",
							gi, gc.k, opts, p, i, got[i].Seq, got[i].Depth, want[i].Seq, want[i].Depth)
					}
				}
			}
		}
	}
}

// TestRefineRemoteReadsOnlyChainWalk: at P=8 the refinement passes read no
// other rank's memory. A rank's one-sided reads over Refine are the bubble
// tie fetches alone with compaction off, and with it on at most those plus
// the members its chain walks take in (the oracle, which walks the same
// chains from the same ranks, counts them). On distinct depths there are no
// ties, so compaction off reads nothing remote at all. The barrier count of
// a rank over Refine is pinned too, with an exchange and a pgas.Shared
// counting one barrier and an all-reduce none: the index build (a Shared and
// the flush's exchange), one push and one tombstone exchange per pass,
// prune's two all-reduces (the second per round; this input takes one
// round), and then renumbering (1), or compaction's link exchange, member
// barrier, redistribution (a Shared, an exchange, a barrier and a
// renumbering) and release (2).
func TestRefineRemoteReadsOnlyChainWalk(t *testing.T) {
	const p, k = 8, 7
	const shared, allReduce, exchange = 1, 0, 1 // barriers counted per collective
	const passes = shared + exchange + 3*2*exchange + 2*allReduce
	rng := rand.New(rand.NewSource(7))
	var seqs []string
	for len(seqs) < 300 {
		seqs = append(seqs, randomGraph(rng, k)...)
	}
	for _, tc := range []struct {
		name     string
		distinct bool
		barriers map[bool]uint64 // by Compact
	}{
		{"distinct depths", true, map[bool]uint64{
			false: passes + 1,
			true:  passes + exchange + 1 + (shared + exchange + 1 + 1) + 2}},
		{"tied depths", false, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			contigs := mkContigs(seqs, randomDepths(rand.New(rand.NewSource(3)), len(seqs), tc.distinct))
			tiedGets := 0
			for _, compact := range []bool{false, true} {
				opts := DefaultOptions(k)
				opts.Compact = compact
				var steps, ties [p]int
				var gets, barriers [p]uint64
				pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 4}).Run(func(r *pgas.Rank) {
					lo, hi := r.BlockRange(len(contigs))
					_, steps[r.ID()] = refRefine(r, dbg.DistributeContigs(r, contigs[lo:hi], dist.Distributed), opts)
				})
				var shards [p][]dbg.Contig
				pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 4}).Run(func(r *pgas.Rank) {
					lo, hi := r.BlockRange(len(contigs))
					cs := dbg.DistributeContigs(r, contigs[lo:hi], dist.Distributed)
					shards[r.ID()] = cs.Local(r)
					r.Barrier()
					ties[r.ID()] = remoteTies(shards[:], r.ID(), k)
					before := r.Stats()
					Refine(r, cs, opts)
					after := r.Stats()
					gets[r.ID()] = after.RemoteGets - before.RemoteGets
					barriers[r.ID()] = after.Barriers - before.Barriers
				})
				for rank := 0; rank < p; rank++ {
					bound := ties[rank]
					if compact {
						bound += steps[rank]
					}
					if gets[rank] > uint64(bound) {
						t.Errorf("compact=%v: rank %d made %d remote gets, want at most %d (%d tie partners, %d walk steps)",
							compact, rank, gets[rank], bound, ties[rank], steps[rank])
					}
					if tc.distinct && !compact && gets[rank] != 0 {
						t.Errorf("compact off: rank %d made %d remote gets, want 0", rank, gets[rank])
					}
					if !compact {
						tiedGets += int(gets[rank])
					}
					if want, ok := tc.barriers[compact]; ok && barriers[rank] != want {
						t.Errorf("compact=%v: rank %d passed %d barriers, want %d", compact, rank, barriers[rank], want)
					}
				}
			}
			if !tc.distinct && tiedGets == 0 {
				t.Error("no bubble tie was fetched remotely; the input does not exercise the bound")
			}
		})
	}
}

// remoteTies counts the contigs of other ranks that share a junction with
// some contig of rank and have its depth and length: the most remote tie
// fetches rank's bubble decisions can make.
func remoteTies(shards [][]dbg.Contig, rank, k int) int {
	keys := func(c dbg.Contig) []seq.Kmer {
		var out []seq.Kmer
		for _, end := range []byte{'L', 'R'} {
			if key, _, ok := junctionKey(c, k, end); ok {
				out = append(out, key)
			}
		}
		return out
	}
	n := 0
	for owner, shard := range shards {
		if owner == rank {
			continue
		}
	next:
		for _, y := range shard {
			for _, x := range shards[rank] {
				if x.Depth != y.Depth || len(x.Seq) != len(y.Seq) {
					continue
				}
				for _, kx := range keys(x) {
					if slices.Contains(keys(y), kx) {
						n++
						continue next
					}
				}
			}
		}
	}
	return n
}
