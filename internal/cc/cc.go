// Package cc implements connected-component labelling for the contig graph:
// a parallel lock-free variant in the spirit of the Shiloach–Vishkin
// algorithm the paper uses to partition the scaffolding traversal. (The
// sequential union-find it is tested against lives beside the tests.)
package cc

import (
	"sync/atomic"

	"mhmgo/internal/pgas"
)

// Edge is an undirected edge between two vertices identified by dense
// integer ids.
type Edge struct {
	U, V int
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

// Parallel computes connected components with a lock-free, CAS-based
// union-find (a Shiloach–Vishkin-style hooking + pointer-jumping scheme).
// It is a collective operation: every rank must call it with its own slice
// of locally-held edges; every rank returns the same label slice mapping
// each vertex to the smallest vertex id in its component.
//
// parent must be a shared []int64 of length n created before the SPMD
// region (e.g. by the coordinator) and initialized via InitParents, or nil
// in which case rank 0 allocates it and broadcasts it.
func Parallel(r *pgas.Rank, n int, localEdges []Edge, parent []int64) []int {
	if parent == nil {
		if r.ID() == 0 {
			parent = NewParents(n)
		}
		parent = pgas.Broadcast(r, parent)
	}
	r.Barrier()

	find := func(x int) int {
		for {
			p := atomic.LoadInt64(&parent[x])
			if int(p) == x {
				return x
			}
			gp := atomic.LoadInt64(&parent[p])
			// Path halving.
			atomic.CompareAndSwapInt64(&parent[x], p, gp)
			x = int(gp)
		}
	}

	// Hooking phase: each rank processes its local edges, repeatedly trying
	// to hook the larger root under the smaller one with CAS. The compute
	// charge is a fixed three ops per edge (two finds plus one hook): the
	// number of CAS retries depends on real goroutine interleaving, and
	// charging it would make simulated seconds nondeterministic even though
	// the resulting labels are not.
	for _, e := range localEdges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			continue
		}
		r.Compute(3)
		for {
			ru, rv := find(e.U), find(e.V)
			if ru == rv {
				break
			}
			if ru > rv {
				ru, rv = rv, ru
			}
			// Hook the larger root under the smaller.
			if atomic.CompareAndSwapInt64(&parent[rv], int64(rv), int64(ru)) {
				break
			}
		}
	}
	r.Compute(float64(len(localEdges)))
	r.Barrier()

	// Pointer-jumping phase: everyone compresses a block of vertices.
	lo, hi := r.BlockRange(n)
	for v := lo; v < hi; v++ {
		root := find(v)
		atomic.StoreInt64(&parent[v], int64(root))
	}
	r.Compute(float64(hi - lo))
	r.Barrier()

	labels := make([]int, n)
	for v := 0; v < n; v++ {
		labels[v] = int(atomic.LoadInt64(&parent[v]))
	}
	return labels
}

// NewParents allocates and initializes a shared parent array for Parallel.
func NewParents(n int) []int64 {
	p := make([]int64, n)
	for i := range p {
		p[i] = int64(i)
	}
	return p
}
