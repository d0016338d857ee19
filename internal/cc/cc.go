// Package cc implements connected-component labelling for the contig graph:
// a parallel lock-free variant in the spirit of the Shiloach–Vishkin
// algorithm the paper uses to partition the scaffolding traversal. (The
// sequential union-find it is tested against lives beside the tests.)
package cc

import (
	"sync/atomic"

	"mhmgo/internal/dist"
	"mhmgo/internal/pgas"
)

// Edge is an undirected edge between two vertices identified by their
// dist.ID global IDs.
type Edge struct {
	U, V int
}

// Parallel computes connected components with a lock-free, CAS-based
// union-find (a Shiloach–Vishkin-style hooking + pointer-jumping scheme).
// It is a collective operation. Vertices are owned like the items of a
// dist.Set: every rank passes the number of vertices it owns, nLocal (its
// vertices are dist.ID(rank, 0 … nLocal-1)), and its slice of locally held
// edges, whose endpoints may live on any rank; an edge naming no vertex is
// ignored.
//
// A component's representative is its smallest vertex ID, and the
// components are numbered densely in representative order. Parallel returns
// the number of components (the same on every rank) and, for each local
// vertex, the number of its component.
//
// The parent array is partitioned by owner: each rank allocates only the
// slots of the vertices it owns, and every rank hooks and compresses through
// any partition with atomics.
func Parallel(r *pgas.Rank, nLocal int, localEdges []Edge) (comp []int, total int) {
	parts := pgas.Shared(r, func() [][]atomic.Int64 { return make([][]atomic.Int64, r.NRanks()) })
	mine := make([]atomic.Int64, nLocal)
	for i := range mine {
		mine[i].Store(int64(dist.ID(r.ID(), i)))
	}
	parts[r.ID()] = mine
	r.Barrier()

	slot := func(x int) *atomic.Int64 {
		p, i := dist.Locate(x)
		return &parts[p][i]
	}
	valid := func(x int) bool {
		p, i := dist.Locate(x)
		return x >= 0 && p < len(parts) && i < len(parts[p])
	}
	find := func(x int) int {
		for {
			p := slot(x).Load()
			if int(p) == x {
				return x
			}
			gp := slot(int(p)).Load()
			// Path halving.
			slot(x).CompareAndSwap(p, gp)
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
		if !valid(e.U) || !valid(e.V) {
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
			if slot(rv).CompareAndSwap(int64(rv), int64(ru)) {
				break
			}
		}
	}
	r.Compute(float64(len(localEdges)))
	r.Barrier()

	// Pointer-jumping phase: every rank compresses its own partition.
	for i := range mine {
		mine[i].Store(int64(find(dist.ID(r.ID(), i))))
	}
	r.Compute(float64(nLocal))
	r.Barrier()

	// Number the components. A representative is a vertex that is its own
	// root; IDs order rank-major, so an exclusive scan of the per-rank
	// representative counts numbers them in ID order. Once every parent
	// points at its root, a representative's slot is no longer needed as a
	// parent and carries its component number instead, complemented (^n < 0)
	// so it cannot be mistaken for a vertex ID.
	reps := 0
	for i := range mine {
		if int(mine[i].Load()) == dist.ID(r.ID(), i) {
			reps++
		}
	}
	next := pgas.ExScan(r, reps, pgas.ReduceSum)
	for i := range mine {
		if int(mine[i].Load()) == dist.ID(r.ID(), i) {
			mine[i].Store(int64(^next))
			next++
		}
	}
	// The all-reduce's host barriers publish the numbers before any rank
	// reads a remote representative's slot. They are unpriced, but this fence
	// needs one: a change to one host barrier per collective must keep it
	// (ROADMAP 21(c)).
	total = pgas.AllReduce(r, reps, pgas.ReduceSum)
	comp = make([]int, nLocal)
	for i := range mine {
		p := mine[i].Load()
		if p >= 0 {
			p = slot(int(p)).Load()
		}
		comp[i] = int(^p)
	}
	r.Compute(float64(nLocal))
	return comp, total
}
