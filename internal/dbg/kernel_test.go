package dbg

import (
	"math/rand"
	"strings"
	"testing"

	"mhmgo/internal/kmeranalysis"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// greaterThanRC reports whether s sorts strictly after its reverse
// complement: the byte-wise definition seq.Packed.GreaterThanRC, Traverse's
// walk orientation check, is held to.
func greaterThanRC(s []byte) bool {
	for i := range s {
		c := seq.ComplementChar(s[len(s)-1-i])
		if s[i] != c {
			return s[i] > c
		}
	}
	return false
}

// fixtureVertex is one vertex of the fixture graph: its canonical k-mer and
// the entry a walk from it starts with.
type fixtureVertex struct {
	km seq.Kmer
	e  Entry
}

// walkFixtureGraph builds a single-rank graph over reads covering a random
// genome, returning the machine, graph and the vertex list.
func walkFixtureGraph(t testing.TB, genomeLen, k int) (*pgas.Machine, *Graph, []fixtureVertex) {
	r := rand.New(rand.NewSource(51))
	var sb strings.Builder
	for i := 0; i < genomeLen; i++ {
		sb.WriteByte(seq.BaseToChar(byte(r.Intn(4))))
	}
	reads := coverWithReads(sb.String(), 60, 5, 3)
	m := pgas.NewMachine(pgas.Config{Ranks: 1})
	opts := kmeranalysis.DefaultOptions(k)
	opts.UseBloom = false
	var g *Graph
	var vertices []fixtureVertex
	m.Run(func(rk *pgas.Rank) {
		res := kmeranalysis.Run(rk, reads, opts, nil)
		g = Build(rk, res.Counts, k, defaultThresholds())
		g.Entries.ForEachLocal(rk, func(km seq.Kmer, e Entry) {
			vertices = append(vertices, fixtureVertex{km: km, e: e})
		})
	})
	if len(vertices) == 0 {
		t.Fatal("fixture graph has no vertices")
	}
	return m, g, vertices
}

// walkASCII is the oracle and baseline of the packed walk: one ASCII byte
// appended per step into a freshly allocated slice.
func (g *Graph) walkASCII(r *pgas.Rank, start oriented, e Entry, maxSteps int) ([]byte, []uint32) {
	obs := start.observedKmer()
	contigSeq := append([]byte(nil), obs.Bytes()...)
	counts := []uint32{e.Count}
	cur, ce := start, e
	for steps := 0; steps < maxSteps; steps++ {
		next, ne, code, ok := g.successor(r, cur, ce)
		if !ok {
			break
		}
		if next.key == start.key {
			break
		}
		contigSeq = append(contigSeq, seq.BaseToChar(code))
		counts = append(counts, ne.Count)
		cur, ce = next, ne
		r.Compute(1)
	}
	return contigSeq, counts
}

// TestWalkPackedMatchesASCII walks every vertex of a fixture graph in both
// orientations with the packed and the ASCII kernels and requires identical
// sequences and depth counts.
func TestWalkPackedMatchesASCII(t *testing.T) {
	m, g, vertices := walkFixtureGraph(t, 600, 21)
	ws := &walkScratch{}
	m.Run(func(rk *pgas.Rank) {
		maxSteps := g.Entries.Len() + 1
		for _, v := range vertices {
			km := v.km
			for _, forward := range []bool{true, false} {
				start := oriented{key: km, forward: forward}
				g.walk(rk, start, v.e, maxSteps, ws)
				wantSeq, wantCounts := g.walkASCII(rk, start, v.e, maxSteps)
				if got, n := string(ws.seq.AppendUnpack(nil)), ws.seq.Len(); got != string(wantSeq) || n != len(wantSeq) {
					t.Fatalf("walk from %s forward=%v:\n got %s (n=%d)\nwant %s",
						km.String(), forward, got, n, wantSeq)
				}
				gotCounts := ws.counts
				if len(gotCounts) != len(wantCounts) {
					t.Fatalf("walk from %s: %d counts, want %d", km.String(), len(gotCounts), len(wantCounts))
				}
				for i := range gotCounts {
					if gotCounts[i] != wantCounts[i] {
						t.Fatalf("walk from %s: count[%d] = %d, want %d",
							km.String(), i, gotCounts[i], wantCounts[i])
					}
				}
				// The packed emit-once predicate must agree with the ASCII one.
				if got, want := ws.seq.GreaterThanRC(), greaterThanRC(wantSeq); got != want {
					t.Fatalf("walk from %s: GreaterThanRC = %v, ASCII greaterThanRC = %v",
						km.String(), got, want)
				}
			}
		}
	})
}

// BenchmarkKernelDBGWalk measures one walk per op from a fixed set of start
// vertices. The packed variant walks into a warm scratch and must be
// allocation-free; the ASCII baseline allocates and grows a byte slice per
// walk, whether or not the path would be emitted.
func BenchmarkKernelDBGWalk(b *testing.B) {
	m, g, vertices := walkFixtureGraph(b, 600, 21)
	maxSteps := 0
	b.Run("packed", func(b *testing.B) {
		ws := &walkScratch{}
		m.Run(func(rk *pgas.Rank) {
			if maxSteps == 0 {
				maxSteps = g.Entries.Len() + 1
			}
			v0 := vertices[0]
			g.walk(rk, oriented{key: v0.km, forward: true}, v0.e, maxSteps, ws) // warm the buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := vertices[i%len(vertices)]
				g.walk(rk, oriented{key: v.km, forward: i%2 == 0}, v.e, maxSteps, ws)
			}
			b.StopTimer()
			allocs := testing.AllocsPerRun(100, func() {
				g.walk(rk, oriented{key: v0.km, forward: true}, v0.e, maxSteps, ws)
			})
			if allocs != 0 {
				b.Fatalf("packed walk with warm scratch: %v allocs/op, want 0", allocs)
			}
		})
	})
	b.Run("ascii", func(b *testing.B) {
		m.Run(func(rk *pgas.Rank) {
			if maxSteps == 0 {
				maxSteps = g.Entries.Len() + 1
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := vertices[i%len(vertices)]
				g.walkASCII(rk, oriented{key: v.km, forward: i%2 == 0}, v.e, maxSteps)
			}
		})
	})
}
