package cc

import (
	"math/rand"
	"testing"

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

func TestParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	n := 2000
	var edges []Edge
	// Random sparse graph: ~1.2 edges per vertex so several components form.
	for i := 0; i < n*12/10; i++ {
		edges = append(edges, Edge{r.Intn(n), r.Intn(n)})
	}
	want := components(n, edges)

	m := pgas.NewMachine(pgas.Config{Ranks: 8, RanksPerNode: 4})
	parent := NewParents(n)
	var results [8][]int
	m.Run(func(rk *pgas.Rank) {
		lo, hi := rk.BlockRange(len(edges))
		results[rk.ID()] = Parallel(rk, n, edges[lo:hi], parent)
	})
	for rank := 0; rank < 8; rank++ {
		got := results[rank]
		if len(got) != n {
			t.Fatalf("rank %d returned %d labels", rank, len(got))
		}
		for v := 0; v < n; v++ {
			if got[v] != want[v] {
				t.Fatalf("rank %d: vertex %d labelled %d, sequential says %d", rank, v, got[v], want[v])
			}
		}
	}
}

func TestParallelAllocatesParentsWhenNil(t *testing.T) {
	n := 50
	edges := []Edge{{0, 1}, {2, 3}, {3, 4}, {10, 20}}
	m := pgas.NewMachine(pgas.Config{Ranks: 4})
	var got []int
	m.Run(func(rk *pgas.Rank) {
		lo, hi := rk.BlockRange(len(edges))
		labels := Parallel(rk, n, edges[lo:hi], nil)
		if rk.ID() == 0 {
			got = labels
		}
	})
	want := components(n, edges)
	for v := range want {
		if got[v] != want[v] {
			t.Errorf("vertex %d: %d vs %d", v, got[v], want[v])
		}
	}
}

func TestParallelSingleRank(t *testing.T) {
	n := 10
	edges := []Edge{{0, 9}, {1, 2}}
	m := pgas.NewMachine(pgas.Config{Ranks: 1})
	m.Run(func(rk *pgas.Rank) {
		labels := Parallel(rk, n, edges, nil)
		if labels[9] != 0 || labels[2] != 1 {
			t.Errorf("labels = %v", labels)
		}
	})
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
