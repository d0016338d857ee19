package dbg

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// isPathStart reports whether the oriented k-mer has no valid predecessor,
// i.e. a contig starts here when walking in this orientation. It pays one
// Get per probe: the predicate markPredecessors' claim exchange computes for
// a whole rank at once, kept as that exchange's oracle.
func (g *Graph) isPathStart(r *pgas.Rank, cur oriented, e Entry) bool {
	ext := observedExt(e, cur.forward)
	if !seq.IsBaseExt(ext.Left) {
		return true
	}
	code, _ := seq.CharToBase(ext.Left)
	obs := cur.observedKmer()
	prevObs := obs.PrependBase(code)
	prev, pe, ok := g.lookup(r, prevObs)
	if !ok {
		return true
	}
	prevExt := observedExt(pe, prev.forward)
	if !seq.IsBaseExt(prevExt.Right) {
		return true
	}
	fwdCode, _ := seq.CharToBase(prevExt.Right)
	return fwdCode != obs.BaseAt(g.K-1)
}

// traverseByProbe is Traverse with every path start found by isPathStart,
// one Get per vertex orientation. Collective.
func traverseByProbe(r *pgas.Rank, g *Graph, opts TraverseOptions) []Contig {
	maxSteps := g.vertexCount() + 1
	var out []Contig
	ws := &walkScratch{}
	for _, v := range g.sortedLocalVertices(r) {
		for _, forward := range []bool{true, false} {
			cur := oriented{key: v.km, forward: forward}
			if !g.isPathStart(r, cur, v.e) {
				continue
			}
			g.walk(r, cur, v.e, maxSteps, ws)
			n := ws.seq.Len()
			if n < g.K || (opts.MinContigLen > 0 && n < opts.MinContigLen) {
				continue
			}
			if ws.seq.GreaterThanRC() {
				continue
			}
			out = append(out, Contig{Seq: ws.seq.AppendUnpack(nil), Depth: seq.MeanDepthFromCounts(ws.counts)})
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

// addGenome threads a random genome through the graph with consistent
// extensions, closed into a cycle when circular. Repeated k-mers overwrite
// each other's extensions, which makes forks and disagreements.
func (b *graphBuilder) addGenome(n int, circular bool) {
	g := b.randomBases(n)
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

// randomGraphEntries returns the entries of a random graph over k-mers:
// random vertices (dense in the k-mer space at small k, so forks, dead
// ends, cycles and disagreeing neighbours are common), a genome path, a
// poly-A self-loop and, for even k, palindromes.
func randomGraphEntries(rng *rand.Rand, k int) map[seq.Kmer]Entry {
	b := &graphBuilder{rng: rng, k: k, entries: map[seq.Kmer]Entry{}}
	for i := rng.Intn(60); i > 0; i-- {
		b.set(b.randomBases(k), b.randomExt(), b.randomExt())
	}
	b.addGenome(k+rng.Intn(80), rng.Intn(2) == 0)
	b.set(strings.Repeat("A", k), 'A', 'A')
	if k%2 == 0 {
		for i := 1 + rng.Intn(6); i > 0; i-- {
			half := b.randomBases(k / 2)
			pal := half + string(seq.ReverseComplement([]byte(half)))
			b.set(pal, b.randomExt(), b.randomExt())
		}
	}
	return b.entries
}

// TestPathStartsMatchProbeOracle holds the claim exchange to the
// one-Get-per-probe predicate on random graphs at odd and even k (with
// palindromes), with forks, dead ends, cycles and a poly-A self-loop, at
// P = 1, 3 and 16: the path starts must agree vertex by vertex and
// orientation by orientation, and Traverse must emit, rank by rank, exactly
// the contigs the probing traversal emits.
func TestPathStartsMatchProbeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var palindromes, nonStarts, starts int
	for trial := 0; trial < 120; trial++ {
		k := []int{3, 4, 5, 6, 11, 12, 33, 40}[trial%8]
		entries := randomGraphEntries(rng, k)
		for _, ranks := range []int{1, 3, 16} {
			t.Run(fmt.Sprintf("trial=%d/k=%d/P=%d", trial, k, ranks), func(t *testing.T) {
				m := pgas.NewMachine(pgas.Config{Ranks: ranks})
				g := NewGraph(m, k)
				perRank := make([][3]int, ranks)
				m.Run(func(r *pgas.Rank) {
					for km, e := range entries {
						if g.Entries.Owner(km) == r.ID() {
							g.Entries.SetLocal(r, km, e)
						}
					}
					r.Barrier()
					g.Entries.Freeze()
					local := g.sortedLocalVertices(r)
					if len(local) != g.Entries.LocalLen(r.ID()) {
						t.Errorf("rank %d: %d sorted vertices, %d owned", r.ID(), len(local), g.Entries.LocalLen(r.ID()))
					}
					for i := 1; i < len(local); i++ {
						if !local[i-1].km.Less(local[i].km) {
							t.Errorf("rank %d: vertex %d (%s) does not sort before %s", r.ID(), i-1, local[i-1].km, local[i].km)
						}
					}
					g.markPredecessors(r, local)
					for _, v := range local {
						if v.km == v.km.ReverseComplement() {
							perRank[r.ID()][0]++
						}
						for o, forward := range []bool{true, false} {
							start := v.pred&(1<<o) == 0
							if want := g.isPathStart(r, oriented{key: v.km, forward: forward}, v.e); start != want {
								t.Errorf("%s (ext %s) forward=%v: claim exchange says start=%v, probe says %v",
									v.km, v.e.Ext, forward, start, want)
							}
							if start {
								perRank[r.ID()][2]++
							} else {
								perRank[r.ID()][1]++
							}
						}
					}
					for _, opts := range []TraverseOptions{{}, {MinContigLen: 2 * k}} {
						got, want := Traverse(r, g, opts), traverseByProbe(r, g, opts)
						if len(got) != len(want) {
							t.Errorf("rank %d, %+v: Traverse emitted %d contigs, probing traversal %d",
								r.ID(), opts, len(got), len(want))
							continue
						}
						for i := range got {
							if string(got[i].Seq) != string(want[i].Seq) || got[i].Depth != want[i].Depth {
								t.Errorf("rank %d, %+v: contig %d is %s (depth %v), want %s (depth %v)",
									r.ID(), opts, i, got[i].Seq, got[i].Depth, want[i].Seq, want[i].Depth)
							}
						}
					}
				})
				for _, c := range perRank {
					palindromes += c[0]
					nonStarts += c[1]
					starts += c[2]
				}
			})
		}
	}
	// The property is only as good as the cases it met.
	t.Logf("%d palindromic vertices, %d non-start and %d start orientations", palindromes, nonStarts, starts)
	if palindromes == 0 || nonStarts == 0 || starts == 0 {
		t.Errorf("random graphs met %d palindromes, %d non-start and %d start orientations; want all > 0",
			palindromes, nonStarts, starts)
	}
}
