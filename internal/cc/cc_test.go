package cc

import (
	"math/rand"
	"testing"

	"mhmgo/internal/dist"
	"mhmgo/internal/pgas"
)

// components is the sequential oracle Parallel is compared against: it
// labels the vertices 0..n-1 of an undirected graph with component
// representatives using a union-find with path compression and union by
// size. The returned slice maps each vertex to the smallest vertex id in its
// component.
func components(n int, edges []Edge) []int {
	parent := make([]int, n)
	size := make([]int, n)
	for i := range parent {
		parent[i] = i
		size[i] = 1
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			continue
		}
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			continue
		}
		if size[ru] < size[rv] {
			ru, rv = rv, ru
		}
		parent[rv] = ru
		size[ru] += size[rv]
	}
	// Canonicalize to the smallest member id per component.
	minRep := make(map[int]int)
	for v := 0; v < n; v++ {
		r := find(v)
		if cur, ok := minRep[r]; !ok || v < cur {
			minRep[r] = v
		}
	}
	labels := make([]int, n)
	for v := 0; v < n; v++ {
		labels[v] = minRep[find(v)]
	}
	return labels
}

func TestComponentsSimple(t *testing.T) {
	// Two triangles and an isolated vertex.
	edges := []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}}
	labels := components(7, edges)
	if labels[0] != 0 || labels[1] != 0 || labels[2] != 0 {
		t.Errorf("first component labels wrong: %v", labels)
	}
	if labels[3] != 3 || labels[4] != 3 || labels[5] != 3 {
		t.Errorf("second component labels wrong: %v", labels)
	}
	if labels[6] != 6 {
		t.Errorf("isolated vertex label wrong: %v", labels)
	}
	groups := GroupByComponent(labels)
	if len(groups) != 3 {
		t.Errorf("%d components, want 3", len(groups))
	}
	if len(groups[0]) != 3 || len(groups[3]) != 3 || len(groups[6]) != 1 {
		t.Errorf("GroupByComponent wrong: %v", groups)
	}
}

func TestComponentsIgnoresOutOfRangeEdges(t *testing.T) {
	labels := components(3, []Edge{{0, 1}, {1, 99}, {-1, 2}})
	if labels[0] != 0 || labels[1] != 0 || labels[2] != 2 {
		t.Errorf("labels = %v", labels)
	}
}

func TestComponentsEmpty(t *testing.T) {
	if got := components(0, nil); len(got) != 0 {
		t.Errorf("empty graph labels = %v", got)
	}
	labels := components(4, nil)
	for v, l := range labels {
		if l != v {
			t.Errorf("vertex %d labelled %d with no edges", v, l)
		}
	}
}

func TestComponentsChain(t *testing.T) {
	// A long path must collapse to one component labelled 0.
	n := 1000
	edges := make([]Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	labels := components(n, edges)
	for v, l := range labels {
		if l != 0 {
			t.Fatalf("vertex %d labelled %d in a single chain", v, l)
		}
	}
}

// GroupByComponent converts a label slice into a map from representative to
// the member vertices of that component.
func GroupByComponent(labels []int) map[int][]int {
	groups := make(map[int][]int)
	for v, rep := range labels {
		groups[rep] = append(groups[rep], v)
	}
	return groups
}

// runParallel lays the dense vertices 0..n-1 out over the ranks rank-major,
// sizes[p] of them on rank p, hands each rank the edges it holds (mapped to
// dist IDs) and returns every vertex's component number, in dense order,
// plus the component count each rank reported.
func runParallel(t *testing.T, sizes []int, held func(rank int) []Edge) (comp []int, totals []int) {
	t.Helper()
	p := len(sizes)
	first := make([]int, p+1)
	for i, sz := range sizes {
		first[i+1] = first[i] + sz
	}
	parts := make([][]int, p)
	totals = make([]int, p)
	m := pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 4})
	m.Run(func(rk *pgas.Rank) {
		parts[rk.ID()], totals[rk.ID()] = Parallel(rk, sizes[rk.ID()], held(rk.ID()))
	})
	for _, part := range parts {
		comp = append(comp, part...)
	}
	return comp, totals
}

// idOf maps dense vertex v of a rank-major layout to its dist ID; v outside
// the layout maps to an ID that names no vertex.
func idOf(sizes []int, v int) int {
	for p, sz := range sizes {
		if v < sz {
			return dist.ID(p, v)
		}
		v -= sz
	}
	return dist.ID(len(sizes), v)
}

// denseComponents numbers the oracle's components in representative order:
// what Parallel returns.
func denseComponents(labels []int) (comp []int, total int) {
	number := make(map[int]int)
	comp = make([]int, len(labels))
	for v, rep := range labels {
		if _, ok := number[rep]; !ok {
			// Representatives are smallest members, so they are met in
			// ascending order.
			number[rep] = len(number)
		}
		comp[v] = number[rep]
	}
	return comp, len(number)
}

func checkParallel(t *testing.T, sizes []int, edges []Edge) {
	t.Helper()
	n := 0
	for _, sz := range sizes {
		n += sz
	}
	want, wantTotal := denseComponents(components(n, edges))
	p := len(sizes)
	got, totals := runParallel(t, sizes, func(rank int) []Edge {
		lo, hi := pgas.BlockRange(len(edges), p, rank)
		var held []Edge
		for _, e := range edges[lo:hi] {
			held = append(held, Edge{idOf(sizes, e.U), idOf(sizes, e.V)})
		}
		return held
	})
	for rank, total := range totals {
		if total != wantTotal {
			t.Errorf("rank %d: %d components, sequential says %d", rank, total, wantTotal)
		}
	}
	if len(got) != n {
		t.Fatalf("%d component numbers for %d vertices", len(got), n)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d in component %d, sequential says %d", v, got[v], want[v])
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	n := 2000
	var edges []Edge
	// Random sparse graph: ~1.2 edges per vertex so several components form.
	for i := 0; i < n*12/10; i++ {
		edges = append(edges, Edge{r.Intn(n), r.Intn(n)})
	}
	// Edges naming no vertex are ignored.
	edges = append(edges, Edge{3, n + 5}, Edge{-1, 7})
	sizes := make([]int, 8)
	for p := range sizes {
		lo, hi := pgas.BlockRange(n, len(sizes), p)
		sizes[p] = hi - lo
	}
	checkParallel(t, sizes, edges)
}

// TestParallelEmptyPartitions: ranks owning no vertex allocate an empty
// partition and still hook the edges they hold.
func TestParallelEmptyPartitions(t *testing.T) {
	sizes := []int{20, 0, 30, 0}
	edges := []Edge{{0, 1}, {2, 3}, {3, 4}, {10, 20}, {21, 49}, {19, 20}}
	checkParallel(t, sizes, edges)
}

func TestParallelSingleRank(t *testing.T) {
	checkParallel(t, []int{10}, []Edge{{0, 9}, {1, 2}})
}

func BenchmarkComponents(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	n := 10000
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{r.Intn(n), r.Intn(n)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		components(n, edges)
	}
}
