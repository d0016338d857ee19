package dbg

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"mhmgo/internal/dist"
	"mhmgo/internal/kmeranalysis"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// The traversal Traverse replaced is kept here as its oracle: a walk from
// every path start that looks up one vertex per step, with every start found
// by looking up its predecessor. A lookup reads the vertex's owner's shard
// directly, as no rank of Traverse does.

// oriented is a k-mer as observed during a walk: the canonical key plus the
// strand we are reading it on (true = canonical orientation).
type oriented struct {
	key     seq.Kmer
	forward bool
}

// observed returns the k-mer as read on the walk's strand.
func (o oriented) observed() seq.Kmer {
	if o.forward {
		return o.key
	}
	return o.key.ReverseComplement()
}

// lookup finds the entry of the canonical form of km by binary search in its
// owner's shard, returning the oriented view and whether it exists. With odd
// k the orientation is never ambiguous.
func (g *Graph) lookup(km seq.Kmer) (oriented, Entry, bool) {
	canon, wasRC := km.Canonical()
	shard := g.shards[g.owner(canon)]
	i := sort.Search(len(shard), func(i int) bool { return !shard[i].km.Less(canon) })
	o := oriented{key: canon, forward: !wasRC}
	if i == len(shard) || shard[i].km != canon {
		return o, Entry{}, false
	}
	return o, shard[i].e, true
}

// successor returns the next oriented k-mer of a walk, or ok=false if the
// walk must stop (no extension, fork, missing vertex, or mutual-agreement
// failure).
func (g *Graph) successor(cur oriented, e Entry) (oriented, Entry, byte, bool) {
	code, ok := seq.CharToBase(observedExt(e, cur.forward).Right)
	if !ok {
		return oriented{}, Entry{}, 0, false
	}
	obs := cur.observed()
	next, ne, ok := g.lookup(obs.AppendBase(code))
	if !ok {
		return oriented{}, Entry{}, 0, false
	}
	// Mutual agreement: the successor's left extension must point back at
	// the first base of the current observed k-mer.
	if !leftBaseIs(observedExt(ne, next.forward), obs.FirstBase()) {
		return oriented{}, Entry{}, 0, false
	}
	return next, ne, code, true
}

// isPathStart reports whether the oriented k-mer has no valid predecessor,
// i.e. a contig starts here when walking in this orientation. It looks up
// one vertex per probe: the predicate markPredecessors' claim exchange
// computes for a whole rank at once.
func (g *Graph) isPathStart(cur oriented, e Entry) bool {
	code, ok := seq.CharToBase(observedExt(e, cur.forward).Left)
	if !ok {
		return true
	}
	obs := cur.observed()
	prev, pe, ok := g.lookup(obs.PrependBase(code))
	if !ok {
		return true
	}
	fwdCode, ok := seq.CharToBase(observedExt(pe, prev.forward).Right)
	return !ok || fwdCode != obs.BaseAt(g.K-1)
}

// walkScratch holds a walk's path sequence and per-vertex depths.
type walkScratch struct {
	seq    []byte
	counts []uint32
}

// walk extends a path from the starting oriented k-mer until it hits a fork,
// dead end, missing vertex, the start's own vertex (a hairpin) or the step
// bound, filling the scratch buffers.
func (g *Graph) walk(r *pgas.Rank, start oriented, e Entry, maxSteps int, ws *walkScratch) {
	ws.seq = start.observed().AppendBases(ws.seq[:0])
	ws.counts = append(ws.counts[:0], e.Count)
	cur, ce := start, e
	for steps := 0; steps < maxSteps; steps++ {
		next, ne, code, ok := g.successor(cur, ce)
		if !ok || next.key == start.key {
			break
		}
		ws.seq = append(ws.seq, seq.BaseToChar(code))
		ws.counts = append(ws.counts, ne.Count)
		cur, ce = next, ne
		r.Compute(1)
	}
}

// traverseByProbe is the walking traversal: every path start found by
// isPathStart, every path walked from each of its starts, and a walk kept only
// if its sequence is canonical. Collective.
func traverseByProbe(r *pgas.Rank, g *Graph) []Contig {
	maxSteps := g.vertexCount() + 1
	var out []Contig
	ws := &walkScratch{}
	for _, v := range g.shards[r.ID()] {
		for _, forward := range []bool{true, false} {
			cur := oriented{key: v.km, forward: forward}
			if !g.isPathStart(cur, v.e) {
				continue
			}
			g.walk(r, cur, v.e, maxSteps, ws)
			if len(ws.seq) < g.K {
				continue
			}
			if string(ws.seq) > string(seq.ReverseComplement(ws.seq)) {
				continue
			}
			out = append(out, Contig{Seq: slices.Clone(ws.seq), Depth: seq.MeanDepthFromCounts(ws.counts)})
		}
	}
	r.Barrier()
	return out
}

// graphBuilder collects the canonical entries of a test graph.
type graphBuilder struct {
	rng     *rand.Rand
	k       int
	entries map[seq.Kmer]Entry
}

func newGraphBuilder(rng *rand.Rand, k int) *graphBuilder {
	return &graphBuilder{rng: rng, k: k, entries: map[seq.Kmer]Entry{}}
}

// randomExt returns a random extension character, bases three times as
// likely as a fork or a dead end.
func (b *graphBuilder) randomExt() byte {
	return "ACGTACGTACGTFX"[b.rng.Intn(14)]
}

func (b *graphBuilder) randomBases(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(seq.BaseToChar(byte(b.rng.Intn(4))))
	}
	return sb.String()
}

// set stores the vertex read as obs with the observed extensions, in
// canonical orientation.
func (b *graphBuilder) set(obs string, left, right byte) {
	canon, wasRC := seq.MustKmer(obs).Canonical()
	ext := seq.ExtPair{Left: left, Right: right}
	if wasRC {
		ext = ext.Swap()
	}
	b.entries[canon] = Entry{Count: uint32(1 + b.rng.Intn(40)), Ext: ext}
}

// addSequence threads g through the graph with consistent extensions, closed
// into a cycle when circular. Repeated k-mers overwrite each other's
// extensions, which makes forks and disagreements.
func (b *graphBuilder) addSequence(g string, circular bool) {
	n := len(g)
	if circular {
		// Every rotation's k-mer, with its neighbours taken around the circle.
		wrapped := g + g[:b.k]
		for i := 0; i < n; i++ {
			b.set(wrapped[i:i+b.k], g[(i+n-1)%n], wrapped[i+b.k])
		}
		return
	}
	for i := 0; i+b.k <= n; i++ {
		left, right := byte(seq.ExtNone), byte(seq.ExtNone)
		if i > 0 {
			left = g[i-1]
		}
		if i+b.k < n {
			right = g[i+b.k]
		}
		b.set(g[i:i+b.k], left, right)
	}
}

// hairpin returns a random (k+1)-bp palindrome: a k-mer followed by the base
// that makes its successor its own reverse complement.
func (b *graphBuilder) hairpin() string {
	half := b.randomBases((b.k + 1) / 2)
	return half + string(seq.ReverseComplement([]byte(half)))
}

// randomGraphEntries returns the entries of a random graph over k-mers:
// random vertices (dense in the k-mer space at small k, so forks, dead
// ends, cycles and disagreeing neighbours are common), a genome path, linear
// or circular, and a poly-A self-loop.
func randomGraphEntries(rng *rand.Rand, k int) map[seq.Kmer]Entry {
	b := newGraphBuilder(rng, k)
	for i := rng.Intn(60); i > 0; i-- {
		b.set(b.randomBases(k), b.randomExt(), b.randomExt())
	}
	b.addSequence(b.randomBases(k+rng.Intn(80)), rng.Intn(2) == 0)
	b.set(strings.Repeat("A", k), 'A', 'A')
	return b.entries
}

// hairpinAndCycleEntries returns a graph of the shapes a walk can end in
// early: genomes carrying a hairpin, short or long, whole genomes that are their own reverse
// complement (one hairpin path through every vertex, long enough that the
// step bound cuts it), circular genomes with and without a linear tail
// running into them, forks where two genomes share a core, and a poly-C
// self-loop.
func hairpinAndCycleEntries(rng *rand.Rand, k int) map[seq.Kmer]Entry {
	b := newGraphBuilder(rng, k)
	switch rng.Intn(6) {
	case 0:
		b.addSequence(b.randomBases(rng.Intn(30))+b.hairpin()+b.randomBases(rng.Intn(30)), false)
	case 5:
		// A hairpin alone is one vertex whose path runs to its own mirror.
		b.addSequence(b.randomBases(rng.Intn(3))+b.hairpin()+b.randomBases(rng.Intn(3)), false)
	case 1:
		x := b.randomBases(k + rng.Intn(150))
		b.addSequence(x+string(seq.ReverseComplement([]byte(x))), false)
	case 2:
		b.addSequence(b.randomBases(k+1+rng.Intn(60)), true)
	case 3:
		circle := b.randomBases(k + 1 + rng.Intn(60))
		b.addSequence(circle, true)
		b.addSequence(b.randomBases(1+rng.Intn(20))+circle[:k+rng.Intn(len(circle)-k)], false)
	case 4:
		core := b.randomBases(k + rng.Intn(30))
		for i := 2 + rng.Intn(2); i > 0; i-- {
			b.addSequence(b.randomBases(rng.Intn(20))+core+b.randomBases(rng.Intn(20)), false)
		}
	}
	if rng.Intn(3) == 0 {
		b.addSequence(b.randomBases(rng.Intn(20))+b.hairpin()+b.randomBases(rng.Intn(20)), rng.Intn(2) == 0)
	}
	// Poly-C, unless a genome already holds it, is a self-loop: a cycle on
	// one rank at any P. It draws nothing from rng, so the shapes above stay
	// the ones the seed was chosen for.
	if polyC := seq.MustKmer(strings.Repeat("C", k)); b.entries[polyC] == (Entry{}) {
		b.entries[polyC] = Entry{Count: 1, Ext: seq.ExtPair{Left: 'C', Right: 'C'}}
	}
	return b.entries
}

// graphOf returns the graph of the entries on m's ranks, laid out as Build
// lays it out: each vertex in the shard of the rank that owns its k-mer in
// the counts table, and every shard sorted.
func graphOf(m *pgas.Machine, k int, entries map[seq.Kmer]Entry) *Graph {
	g := newGraph(k, kmeranalysis.NewCountsMap(m).Owner, m.Ranks())
	for km, e := range entries {
		p := g.owner(km)
		g.shards[p] = append(g.shards[p], vertex{km: km, e: e})
	}
	for p, shard := range g.shards {
		g.shards[p] = seq.SortByKmer(shard, k, vertexKmer)
	}
	return g
}

// emitAll returns the contig set that DistributeContigs makes of every rank's
// contigs, on rank 0, sorted by content (nil on the other ranks). Collective.
func emitAll(r *pgas.Rank, local []Contig) []Contig {
	return emitSorted(r, DistributeContigs(r, local, dist.Distributed))
}

// diffContigs describes the first difference between two sorted contig
// sets, or returns "".
func diffContigs(got, want []Contig) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d contigs, oracle %d", len(got), len(want))
	}
	for i := range got {
		if string(got[i].Seq) != string(want[i].Seq) || got[i].Depth != want[i].Depth {
			return fmt.Sprintf("contig %d is %s (depth %v), oracle %s (depth %v)",
				i, got[i].Seq, got[i].Depth, want[i].Seq, want[i].Depth)
		}
	}
	return ""
}

// rankCoverage records what the list-ranking oracle met: the round counts the
// longest paths needed, against the fixed bound Traverse runs, and the
// segment shapes met at each rank count.
type rankCoverage struct {
	mu        sync.Mutex
	needed    map[int]bool // rounds some graph's longest path needed
	atBound   int          // graphs whose longest path needed every round
	cycles    int          // nodes on start-less cycles
	hairpins  int          // paths that are their own mirror
	truncated int          // hairpin paths the step bound cuts
	shapes    map[int]*[numShapes]int
}

func newRankCoverage() *rankCoverage {
	return &rankCoverage{needed: map[int]bool{}, shapes: map[int]*[numShapes]int{}}
}

// The segment shapes rankPaths must rank right.
const (
	hairpinInOneSegment = iota // a hairpin path that is one segment, its own mirror
	hairpinAcrossRanks         // a hairpin path over several ranks; its middle segment is its own mirror
	oneNodeSegment             // a segment of one node
	cycleOnOneRank             // a start-less cycle wholly on one rank: no segment
	cycleAcrossRanks           // a start-less cycle over several ranks: segments that never finish
	numShapes
)

var shapeNames = [numShapes]string{"hairpin in one segment", "hairpin across ranks", "one-node segment", "cycle on one rank", "cycle across ranks"}

// countShapes adds the calling rank's segment shapes to cov at P ranks, from
// its segments and its nodes after ranking.
func (cov *rankCoverage) countShapes(p int, nodes []node, order []int32, segs []segment) {
	var n [numShapes]int
	n[cycleOnOneRank] = len(nodes) - len(order)
	for _, s := range segs {
		head, tail := order[s.lo], order[s.hi-1]
		if s.hi-s.lo == 1 {
			n[oneNodeSegment]++
		}
		switch h := nodes[head]; {
		case h.dist < 0:
			n[cycleAcrossRanks]++
		case tail^1 == head && h.dist == 0:
			n[hairpinInOneSegment]++
		case tail^1 == head:
			n[hairpinAcrossRanks]++
		}
	}
	cov.mu.Lock()
	defer cov.mu.Unlock()
	if cov.shapes[p] == nil {
		cov.shapes[p] = new([numShapes]int)
	}
	for i, c := range n {
		cov.shapes[p][i] += c
	}
}

// checkShapes fails t unless every shape was met at every rank count in ps
// where it can occur: the cross-rank ones need P > 1.
func (cov *rankCoverage) checkShapes(t *testing.T, ps []int) {
	t.Helper()
	for _, p := range ps {
		got := cov.shapes[p]
		t.Logf("P=%d segment shapes: %v", p, *got)
		for i, c := range got {
			if c == 0 && (p > 1 || (i != hairpinAcrossRanks && i != cycleAcrossRanks)) {
				t.Errorf("P=%d: no %s met", p, shapeNames[i])
			}
		}
	}
}

// checkSegments holds chainSegments to its definition on the calling rank:
// the nodes as markPredecessors left them, every segment a run of nodes each
// preceded by the one before it, a head without a predecessor on this rank,
// a tail without a successor on it, every node in at most one segment, and
// only nodes with a predecessor on this rank (a cycle wholly on it) in none.
func checkSegments(t *testing.T, r *pgas.Rank, marked []node, order []int32, segs []segment) {
	t.Helper()
	me := r.ID()
	localPred := func(x int32) bool { return marked[x].dist < 0 && nodeOwner(marked[x].ptr) == me }
	in := make([]bool, len(marked))
	for _, s := range segs {
		if localPred(order[s.lo]) {
			t.Errorf("rank %d: head %d has a predecessor on its rank", me, order[s.lo])
		}
		if tail := order[s.hi-1]; localPred(tail ^ 1) {
			t.Errorf("rank %d: tail %d has a successor on its rank", me, tail)
		}
		for i := s.lo; i < s.hi; i++ {
			x := order[i]
			if in[x] {
				t.Errorf("rank %d: node %d is in two segments", me, x)
			}
			in[x] = true
			if i > s.lo && marked[x].ptr != dist.ID(me, int(order[i-1])) {
				t.Errorf("rank %d: node %d follows %d in its segment, but its predecessor is %d", me, x, order[i-1], marked[x].ptr)
			}
		}
	}
	for x := range marked {
		if !in[x] && !localPred(int32(x)) {
			t.Errorf("rank %d: node %d is in no segment and has no predecessor on its rank", me, x)
		}
	}
}

// checkRanks holds rankPaths to walks: every node reachable from a path start
// must end up pointing at that start with its distance from it, and every
// other node (on a start-less cycle) must be unfinished. locals and ranked
// hold every rank's vertices and ranked nodes. Run on one rank, after a
// barrier.
func checkRanks(t *testing.T, r *pgas.Rank, g *Graph, locals [][]vertex, ranked [][]node, cov *rankCoverage) {
	t.Helper()
	ids := map[seq.Kmer]int{} // observed k-mer -> node ID
	for rank, local := range locals {
		for i, v := range local {
			for o := 0; o < 2; o++ {
				ids[observedKmer(v.km, o)] = dist.ID(rank, 2*i+o)
			}
		}
	}
	at := func(id int) node {
		rank, i := dist.Locate(id)
		return ranked[rank][i]
	}
	maxSteps := g.vertexCount() + 1
	seen := map[int]bool{}
	maxDist := 0
	for rank, local := range locals {
		for i, v := range local {
			for o := 0; o < 2; o++ {
				cur := oriented{key: v.km, forward: o == 0}
				if !g.isPathStart(cur, v.e) {
					continue
				}
				start := dist.ID(rank, 2*i+o)
				ce, d := v.e, 0
				for {
					id := ids[cur.observed()]
					seen[id] = true
					if got := at(id); got != (node{ptr: start, dist: int32(d)}) {
						t.Errorf("node %s is %d from start %s, ranked as %+v, want {ptr:%d dist:%d}",
							cur.observed(), d, v.km, got, start, d)
					}
					maxDist = max(maxDist, d)
					next, ne, _, ok := g.successor(cur, ce)
					if !ok {
						break
					}
					cur, ce, d = next, ne, d+1
				}
				if end := at(start ^ 1); end.ptr == start {
					cov.mu.Lock()
					cov.hairpins++
					if int(end.dist)-1 > maxSteps {
						cov.truncated++
					}
					cov.mu.Unlock()
				}
			}
		}
	}
	cycles := 0
	for _, id := range ids {
		if !seen[id] {
			cycles++
			if n := at(id); n.dist >= 0 {
				t.Errorf("node %d is on no path from a start, ranked as %+v", id, n)
			}
		}
	}
	needed := bits.Len(uint(maxDist))
	cov.mu.Lock()
	defer cov.mu.Unlock()
	cov.needed[needed] = true
	if needed == bits.Len(uint(maxSteps-1))+1 {
		cov.atBound++
	}
	cov.cycles += cycles
}

// rankAll runs markPredecessors and rankPaths as Traverse does, publishing
// every rank's vertices and nodes, and checks them on rank 0. Each rank
// checks its segments (chainSegments, on a copy of its marked nodes) and
// counts their shapes. Collective.
func rankAll(t *testing.T, r *pgas.Rank, g *Graph, locals [][]vertex, ranked [][]node, cov *rankCoverage) {
	local := g.shards[r.ID()]
	nodes := g.markPredecessors(r, local)
	marked := slices.Clone(nodes)
	order, segs := chainSegments(r, marked)
	checkSegments(t, r, marked, order, segs)
	rankPaths(r, nodes, g.vertexCount()+1)
	cov.countShapes(r.NRanks(), nodes, order, segs)
	locals[r.ID()], ranked[r.ID()] = local, nodes
	r.Barrier()
	if r.ID() == 0 {
		checkRanks(t, r, g, locals, ranked, cov)
	}
	r.Barrier()
}

// TestPathStartsMatchProbeOracle holds Traverse to the walking traversal on
// random graphs with forks, dead ends, cycles and a poly-A self-loop, at odd
// k and P = 1, 3, 16 and 64:
//
//   - the claim exchange finds the path starts the one-Get probe finds, node
//     by node, and names each other node's predecessor;
//   - every rank's segments are maximal runs of its own nodes
//     (checkSegments), and list ranking gives every path node its start and
//     distance (checkRanks);
//   - the contig set after DistributeContigs is the oracle's, sequence and
//     depth. Which rank emits a path is Traverse's own business, so the sets
//     are compared, not the ranks' lists.
//
// Even k is refused: newGraph panics, so those trials pin the refusal.
func TestPathStartsMatchProbeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var nonStarts, starts int
	cov := newRankCoverage()
	for trial := 0; trial < 120; trial++ {
		k := []int{3, 4, 5, 6, 11, 12, 33, 40}[trial%8]
		if k%2 == 0 {
			for _, ranks := range []int{1, 3, 16} {
				t.Run(fmt.Sprintf("trial=%d/k=%d/P=%d", trial, k, ranks), func(t *testing.T) {
					defer func() {
						if recover() == nil {
							t.Errorf("newGraph accepted even k=%d", k)
						}
					}()
					newGraph(k, nil, ranks)
				})
			}
			continue
		}
		entries := randomGraphEntries(rng, k)
		for _, ranks := range []int{1, 3, 16, 64} {
			t.Run(fmt.Sprintf("trial=%d/k=%d/P=%d", trial, k, ranks), func(t *testing.T) {
				m := pgas.NewMachine(pgas.Config{Ranks: ranks})
				g := graphOf(m, k, entries)
				locals, ranked := make([][]vertex, ranks), make([][]node, ranks)
				perRank := make([][2]int, ranks)
				m.Run(func(r *pgas.Rank) {
					local := g.shards[r.ID()]
					for i := 1; i < len(local); i++ {
						if !local[i-1].km.Less(local[i].km) {
							t.Errorf("rank %d: vertex %d (%s) does not sort before %s", r.ID(), i-1, local[i-1].km, local[i].km)
						}
					}
					nodes := g.markPredecessors(r, local)
					locals[r.ID()] = local
					r.Barrier()
					for i, v := range local {
						for o, forward := range []bool{true, false} {
							n := nodes[2*i+o]
							cur := oriented{key: v.km, forward: forward}
							if want := g.isPathStart(cur, v.e); (n.dist == 0) != want {
								t.Errorf("%s (ext %s) forward=%v: claim exchange says start=%v, probe says %v",
									v.km, v.e.Ext, forward, n.dist == 0, want)
								continue
							}
							if n.dist == 0 {
								perRank[r.ID()][1]++
								if n.ptr != dist.ID(r.ID(), 2*i+o) {
									t.Errorf("start %s forward=%v points at %d, not itself", v.km, forward, n.ptr)
								}
								continue
							}
							perRank[r.ID()][0]++
							code, _ := seq.CharToBase(observedExt(v.e, forward).Left)
							rank, j := dist.Locate(n.ptr)
							if got, want := observedKmer(locals[rank][j/2].km, j&1), cur.observed().PrependBase(code); got != want {
								t.Errorf("%s forward=%v: predecessor ID names %s, want %s", v.km, forward, got, want)
							}
						}
					}
					rankAll(t, r, g, locals, ranked, cov)
					// Every check so far ends before rankAll's closing
					// barrier, so all ranks read the same verdict here and
					// skip together: Traverse on an inconsistent ranking
					// could panic instead of reporting.
					if t.Failed() {
						return
					}
					got, want := emitAll(r, Traverse(r, g, TraverseOptions{})), emitAll(r, traverseByProbe(r, g))
					if d := diffContigs(got, want); d != "" {
						t.Error(d)
					}
				})
				for _, c := range perRank {
					nonStarts += c[0]
					starts += c[1]
				}
			})
		}
	}
	// The property is only as good as the cases it met.
	t.Logf("%d non-start and %d start orientations, %d cycle nodes, %d hairpin paths; longest paths needed rounds %v, %d at the bound",
		nonStarts, starts, cov.cycles, cov.hairpins, sortedKeys(cov.needed), cov.atBound)
	if nonStarts == 0 || starts == 0 || cov.cycles == 0 {
		t.Errorf("random graphs met %d non-start and %d start orientations and %d cycle nodes; want all > 0",
			nonStarts, starts, cov.cycles)
	}
	cov.checkShapes(t, []int{1, 3, 16})
}

func sortedKeys(m map[int]bool) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// TestHairpinAndCycleMatchOracle holds Traverse to the walking traversal on
// the shapes where a walk stops before its path's end or never starts:
// hairpins (a (k+1)-bp palindrome, whose path is its own mirror), genomes that
// are their own reverse complement (cut by the step bound), circular genomes
// with and without a tail, and forks, at k = 3, 5, 7, 11 and 21 and P = 1, 3
// and 16. Workers = 1 and 4 must give the same contigs on every rank and the
// same simulated seconds. The seeds are chosen so that the longest paths need
// every round count from 1 up to the fixed bound, and some need the bound,
// and so that every rank count meets every segment shape it can: a hairpin
// path that is one segment, its own mirror; a hairpin path across ranks,
// whose middle segment is its own mirror; one-node segments; a cycle on one
// rank; and, at P > 1, a cycle across ranks.
func TestHairpinAndCycleMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	cov := newRankCoverage()
	maxBound := 0
	for trial := 0; trial < 300; trial++ {
		k := []int{3, 5, 7, 11, 21}[trial%5]
		entries := hairpinAndCycleEntries(rng, k)
		for _, ranks := range []int{1, 3, 16} {
			type outcome struct {
				perRank [][]Contig
				sim     float64
			}
			var first *outcome
			for _, workers := range []int{1, 4} {
				m := pgas.NewMachine(pgas.Config{Ranks: ranks, Workers: workers})
				g := graphOf(m, k, entries)
				got := outcome{perRank: make([][]Contig, ranks)}
				locals, ranked := make([][]vertex, ranks), make([][]node, ranks)
				c := cov
				if workers != 1 {
					c = newRankCoverage()
				}
				res := m.Run(func(r *pgas.Rank) {
					rankAll(t, r, g, locals, ranked, c)
					local := Traverse(r, g, TraverseOptions{})
					got.perRank[r.ID()] = local
					all, want := emitAll(r, local), emitAll(r, traverseByProbe(r, g))
					if d := diffContigs(all, want); d != "" {
						t.Errorf("trial %d, k=%d, P=%d: %s", trial, k, ranks, d)
					}
				})
				got.sim = res.SimSeconds
				maxBound = max(maxBound, bits.Len(uint(g.vertexCount()))+1)
				if first == nil {
					first = &got
				} else if got.sim != first.sim || !reflect.DeepEqual(got.perRank, first.perRank) {
					t.Errorf("trial %d, k=%d, P=%d: Workers=4 gives sim %v and contigs %v, Workers=1 %v and %v",
						trial, k, ranks, got.sim, got.perRank, first.sim, first.perRank)
				}
			}
		}
	}
	t.Logf("%d cycle nodes, %d hairpin paths (%d cut by the step bound); longest paths needed rounds %v (bound up to %d), %d at the bound",
		cov.cycles, cov.hairpins, cov.truncated, sortedKeys(cov.needed), maxBound, cov.atBound)
	for need := 1; need <= maxBound; need++ {
		if !cov.needed[need] {
			t.Errorf("no graph's longest path needed %d rounds; the seeds must meet every count up to the bound %d", need, maxBound)
		}
	}
	if cov.atBound == 0 || cov.cycles == 0 || cov.hairpins == 0 || cov.truncated == 0 {
		t.Errorf("met %d graphs at the round bound, %d cycle nodes, %d hairpin paths, %d cut by the step bound; want all > 0",
			cov.atBound, cov.cycles, cov.hairpins, cov.truncated)
	}
	cov.checkShapes(t, []int{1, 3, 16})
}

// TestTraverseBarriersAndJumpsP8 pins Traverse's per-rank barrier count at
// P=8 on a simulated community at k=21: the claim exchange, one exchange per
// doubling round, the piece exchange and the closing barrier, with an
// exchange counting one barrier. It also pins the point of segments: with the graph owned by
// minimizer, at most a third of a rank's nodes head a segment, and each
// doubling round, driven here one at a time as rankPaths does, sends at most
// one jump per head and receives at most one (its charged records, one op
// each) and puts at most one jump per head on the wire.
func TestTraverseBarriersAndJumpsP8(t *testing.T) {
	const p, k = 8, 21
	comm := sim.GenerateCommunity(sim.CommunityConfig{NumGenomes: 3, MeanGenomeLen: 8000, Seed: 31})
	reads := sim.SimulateReads(comm, sim.ReadConfig{ReadLen: 100, InsertSize: 250, ErrorRate: 0.01, Coverage: 20, Seed: 32})
	var barriers [p]uint64
	rounds := 0
	pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 4}).Run(func(r *pgas.Rank) {
		lo, hi := r.BlockRange(len(reads))
		res := kmeranalysis.Run(r, reads[lo:hi], kmeranalysis.DefaultOptions(k), nil)
		g := Build(r, res.Counts, k, defaultThresholds())
		s0 := r.Stats()
		Traverse(r, g, TraverseOptions{})
		barriers[r.ID()] = r.Stats().Barriers - s0.Barriers
		n := bits.Len(uint(g.vertexCount())) + 1
		if r.ID() == 0 {
			rounds = n
		}

		nodes := g.markPredecessors(r, g.shards[r.ID()])
		order, segs := chainSegments(r, nodes)
		heads := len(segs)
		if heads*3 > len(nodes) {
			t.Errorf("rank %d: %d of %d nodes head a segment; want at most a third", r.ID(), heads, len(nodes))
		}
		live := slices.Clone(segs)
		for round := range n {
			before := r.Stats()
			live = pushRound(r, nodes, order, live)
			after := r.Stats()
			if records := after.ComputeOps - before.ComputeOps; records > float64(2*heads) {
				t.Errorf("rank %d round %d: %v jumps sent and received, %d heads", r.ID(), round, records, heads)
			}
			if wire := after.BytesSent - before.BytesSent; wire > uint64(heads*jumpWireSize) {
				t.Errorf("rank %d round %d: %d jump bytes sent, %d heads", r.ID(), round, wire, heads)
			}
		}
	})
	for rank, b := range barriers {
		const exchange = 1 // barriers per exchange
		if want := uint64(exchange + rounds*exchange + exchange + 1); b != want {
			t.Errorf("rank %d: Traverse passed %d barriers, want %d (%d rounds)", rank, b, want, rounds)
		}
	}
}
