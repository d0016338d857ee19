// Package cgraph implements the contig-graph refinement stages of iterative
// contig generation (Sections II-D and II-E of the paper): bubble merging,
// hair (dead-end tip) removal, iterative depth-based graph pruning
// (Algorithm 2), and compaction of unambiguous contig chains.
//
// The bubble-contig graph is orders of magnitude smaller than the k-mer de
// Bruijn graph: its vertices are whole contigs and its edges are shared
// junction (k-1)-mers. Since PR 3 the contigs themselves stay distributed
// (dist.Set partitioned by content hash): every refinement pass scans only
// the calling rank's shard, neighbour contigs are fetched through a cached
// one-sided read, liveness is tracked in per-owner shards, and removal
// proposals are routed to the owners instead of being broadcast to the
// world. The junction index is built in a distributed hash table with the
// aggregated update-only phase, exactly as before.
package cgraph

import (
	"mhmgo/internal/dbg"
	"mhmgo/internal/dht"
	"mhmgo/internal/dist"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// Options controls contig-graph refinement.
type Options struct {
	// K is the k-mer length the contigs were assembled with.
	K int
	// RemoveHair enables removal of dead-end tips shorter than hairMaxLen.
	RemoveHair bool
	// MergeBubbles enables merging of bubble arms of nearly equal length
	// (keeping the deeper arm).
	MergeBubbles bool
	// Prune enables Algorithm 2 (iterative depth-based pruning).
	Prune bool
	// Compact merges chains of contigs connected by unambiguous junctions.
	Compact bool
	// Aggregate controls DHT update aggregation (for ablations).
	Aggregate bool
}

// DefaultOptions returns the refinement configuration used by the pipeline.
func DefaultOptions(k int) Options {
	return Options{K: k, RemoveHair: true, MergeBubbles: true, Prune: true, Compact: true, Aggregate: true}
}

const (
	// bubbleLenTolerance is the allowed relative length difference between
	// the two arms of a bubble (0 = identical lengths).
	bubbleLenTolerance = 0.02
	// pruneAlpha is Algorithm 2's geometric threshold growth factor and
	// pruneBeta its relative-depth factor; maxPruneRounds bounds its rounds.
	pruneAlpha     = 0.2
	pruneBeta      = 0.5
	maxPruneRounds = 20
)

// hairMaxLen is the length below which a dead-end tip is hair: 2k.
func hairMaxLen(k int) int { return 2 * k }

// Result is the outcome of refinement. Set is the refined distributed contig
// set (the input set is consumed: filtered in place, or released when
// compaction built a new one).
type Result struct {
	Set *dbg.ContigSet
}

// removalWireSize is the wire bytes of one removal proposal (a contig ID)
// routed to the contig's owner.
const removalWireSize = 8

// endRef records that a contig endpoint touches a junction.
type endRef struct {
	ContigID int
	// End is 'L' if the junction is the contig's (k-1)-prefix, 'R' if it is
	// the (k-1)-suffix, in the contig's stored orientation.
	End byte
}

// junctionKey returns the canonical (k-1)-mer key of a contig endpoint, or
// ok=false for contigs shorter than k-1.
func junctionKey(c dbg.Contig, k int, end byte) (seq.Kmer, bool) {
	j := k - 1
	if len(c.Seq) < j {
		return seq.Kmer{}, false
	}
	var s []byte
	if end == 'L' {
		s = c.Seq[:j]
	} else {
		s = c.Seq[len(c.Seq)-j:]
	}
	km, err := seq.KmerFromBytes(s, j)
	if err != nil {
		return seq.Kmer{}, false
	}
	canon, _ := km.Canonical()
	return canon, true
}

// aliveMask tracks contig liveness in per-owner shards: each rank mutates
// only the flags of the contigs it owns, and reading any flag, local or
// remote, costs one compute op and no message (see get).
type aliveMask struct {
	shards [][]bool
}

func newAliveMask(r *pgas.Rank, cs *dbg.ContigSet) *aliveMask {
	var a *aliveMask
	if r.ID() == 0 {
		a = &aliveMask{shards: make([][]bool, r.NRanks())}
	}
	a = pgas.Broadcast(r, a)
	shard := make([]bool, cs.Len(r))
	for i := range shard {
		shard[i] = true
	}
	a.shards[r.ID()] = shard
	r.Barrier()
	return a
}

// get reads a contig's liveness. It costs one compute op, not a message: a
// real implementation stores the tombstone inside the junction refs and the
// contig record itself, so liveness always rides along with a fetch that is
// already charged (the junction lookup or the neighbour contig get) instead
// of paying a dedicated one-byte message.
func (a *aliveMask) get(r *pgas.Rank, id int) bool {
	owner, idx := dist.Locate(id)
	r.Compute(1)
	return a.shards[owner][idx]
}

// graph is the per-rank view of the distributed bubble-contig graph.
type graph struct {
	k        int
	cs       *dbg.ContigSet
	alive    *aliveMask
	junction *dht.Map[seq.Kmer, []endRef]
	// creader caches remote contig fetches; contig records are immutable
	// during refinement, so the cache never goes stale.
	creader *dist.Reader[dbg.Contig]
}

// buildJunctionIndex stores the endpoints of the local contigs selected by
// keep (nil keeps all) in a distributed junction index (Global Update-Only
// phase with aggregation), frozen for remote reads.
func buildJunctionIndex(r *pgas.Rank, cs *dbg.ContigSet, k int, aggregate bool, keep func(i int) bool) *dht.Map[seq.Kmer, []endRef] {
	idx := dht.NewMapCollective[seq.Kmer, []endRef](r, seq.Kmer.Hash, 32)
	combine := func(existing, update []endRef, found bool) []endRef {
		return append(existing, update...)
	}
	u := idx.NewUpdater(r, combine, 256, aggregate)
	cs.ForEachLocal(r, func(i int, c dbg.Contig) {
		if keep != nil && !keep(i) {
			return
		}
		for _, end := range []byte{'L', 'R'} {
			if key, ok := junctionKey(c, k, end); ok {
				u.Update(key, []endRef{{ContigID: c.ID, End: end}})
			}
		}
		r.Compute(2)
	})
	u.Flush()
	r.Barrier()
	// Refinement and compaction only read the junction index: freeze it so
	// the CachedReader traversals may read every partition (use case 3).
	idx.Freeze()
	return idx
}

// neighborsOf returns the other contig refs attached to the two junctions of
// contig c, split by which of c's ends they touch. Dead neighbours are
// filtered through the alive mask.
func (g *graph) neighborsOf(r *pgas.Rank, reader *dht.CachedReader[seq.Kmer, []endRef], c dbg.Contig) (left, right []endRef) {
	collect := func(end byte) []endRef {
		key, ok := junctionKey(c, g.k, end)
		if !ok {
			return nil
		}
		refs, _ := reader.Get(key)
		var out []endRef
		for _, ref := range refs {
			if ref.ContigID == c.ID {
				continue
			}
			if !g.alive.get(r, ref.ContigID) {
				continue
			}
			out = append(out, ref)
		}
		return out
	}
	return collect('L'), collect('R')
}

// meanNeighborDepth returns the mean depth over a set of neighbour refs,
// fetching the neighbour contigs through the cached reader.
func (g *graph) meanNeighborDepth(refs []endRef) float64 {
	if len(refs) == 0 {
		return 0
	}
	var sum float64
	for _, ref := range refs {
		sum += g.creader.Get(ref.ContigID).Depth
	}
	return sum / float64(len(refs))
}

// applyRemovals routes removal proposals to the owners of the proposed
// contigs, who mark them dead, and returns how many of the calling rank's
// contigs actually died (a proposal for an already-dead contig is a no-op, so
// the same bubble proposed by both arms' owners counts once). The closing
// barrier publishes the new liveness to every rank's next pass.
func (g *graph) applyRemovals(r *pgas.Rank, proposals []int) int {
	mine := dist.Exchange(r, proposals,
		func(id int) int { owner, _ := dist.Locate(id); return owner },
		func(int) int { return removalWireSize })
	n := 0
	shard := g.alive.shards[r.ID()]
	for _, id := range mine {
		_, idx := dist.Locate(id)
		if shard[idx] {
			shard[idx] = false
			n++
		}
	}
	r.Compute(float64(len(mine)))
	r.Barrier()
	return n
}

// Refine runs the configured refinement passes over the distributed contig
// set. Collective: every rank passes the shared set, and Result.Set is the
// refined (filtered or compacted, renumbered) set.
func Refine(r *pgas.Rank, cs *dbg.ContigSet, opts Options) Result {
	g := &graph{
		k:       opts.K,
		cs:      cs,
		alive:   newAliveMask(r, cs),
		creader: cs.NewReader(r, 1<<16),
	}
	g.junction = buildJunctionIndex(r, cs, opts.K, opts.Aggregate, nil)

	var res Result

	if opts.MergeBubbles {
		g.mergeBubbles(r)
	}
	if opts.RemoveHair {
		g.removeHair(r)
	}
	if opts.Prune {
		g.prune(r, opts)
	}

	if opts.Compact {
		res.Set = g.compact(r, opts)
		// The input set's contigs were folded into the compacted set.
		cs.Release(r)
	} else {
		aliveShard := g.alive.shards[r.ID()]
		i := -1
		cs.FilterLocal(r, func(dbg.Contig) bool { i++; return aliveShard[i] })
		dbg.RenumberContigs(r, cs)
		res.Set = cs
	}
	r.Barrier()
	return res
}

// proposeLoser decides which arm of a bubble dies: the shallower one, with
// the deterministic content ordering breaking depth ties. The rule depends
// only on the two contigs' content, so both owners propose the same loser at
// any rank count.
func proposeLoser(c, oc dbg.Contig) int {
	switch {
	case c.Depth > oc.Depth:
		return oc.ID
	case oc.Depth > c.Depth:
		return c.ID
	case dbg.ContigLess(c, oc):
		return oc.ID
	default:
		return c.ID
	}
}

// mergeBubbles finds pairs of alive contigs that share both junctions and
// have nearly equal lengths (SNP bubbles) and removes the shallower arm.
func (g *graph) mergeBubbles(r *pgas.Rank) {
	reader := g.junction.NewCachedReader(r, 1<<16, true)
	var removals []int
	aliveShard := g.alive.shards[r.ID()]
	g.cs.ForEachLocal(r, func(i int, c dbg.Contig) {
		if !aliveShard[i] {
			return
		}
		keyL, okL := junctionKey(c, g.k, 'L')
		keyR, okR := junctionKey(c, g.k, 'R')
		if !okL || !okR {
			return
		}
		refsL, _ := reader.Get(keyL)
		refsR, _ := reader.Get(keyR)
		// Candidate bubble partners touch both of c's junctions.
		onRight := make(map[int]bool)
		for _, ref := range refsR {
			onRight[ref.ContigID] = true
		}
		for _, ref := range refsL {
			other := ref.ContigID
			if other == c.ID || !onRight[other] || !g.alive.get(r, other) {
				continue
			}
			oc := g.creader.Get(other)
			if !similarLength(len(c.Seq), len(oc.Seq), bubbleLenTolerance) {
				continue
			}
			removals = append(removals, proposeLoser(c, oc))
		}
		r.Compute(float64(len(refsL) + len(refsR)))
	})
	r.Barrier()
	g.applyRemovals(r, removals)
}

func similarLength(a, b int, tol float64) bool {
	if a == b {
		return true
	}
	big, small := a, b
	if small > big {
		big, small = small, big
	}
	return float64(big-small) <= tol*float64(big)
}

// removeHair removes dead-end tips: contigs shorter than hairMaxLen that are
// attached to the rest of the graph at exactly one end and dangle freely at
// the other, where the attachment point has an alternative continuation.
func (g *graph) removeHair(r *pgas.Rank) {
	reader := g.junction.NewCachedReader(r, 1<<16, true)
	var removals []int
	aliveShard := g.alive.shards[r.ID()]
	g.cs.ForEachLocal(r, func(i int, c dbg.Contig) {
		if !aliveShard[i] || len(c.Seq) >= hairMaxLen(g.k) {
			return
		}
		left, right := g.neighborsOf(r, reader, c)
		attachedEnds := 0
		var attachedRefs []endRef
		if len(left) > 0 {
			attachedEnds++
			attachedRefs = left
		}
		if len(right) > 0 {
			attachedEnds++
			attachedRefs = right
		}
		if attachedEnds != 1 {
			return
		}
		// The tip must be the minority continuation: some sibling at the
		// attachment junction is deeper than the tip. Every sibling is
		// inspected (no early exit), so the charged fetch count — and so
		// simulated seconds — does not depend on the order of the refs.
		deeperSibling := false
		for _, ref := range attachedRefs {
			if g.creader.Get(ref.ContigID).Depth > c.Depth {
				deeperSibling = true
			}
		}
		if deeperSibling {
			removals = append(removals, c.ID)
		}
	})
	r.Barrier()
	g.applyRemovals(r, removals)
}

// prune implements Algorithm 2: iteratively remove short contigs whose depth
// is at most min(tau, beta * neighbour depth), growing tau geometrically
// until a round removes nothing on any rank.
func (g *graph) prune(r *pgas.Rank, opts Options) {
	reader := g.junction.NewCachedReader(r, 1<<16, true)
	maxDepth := 0.0
	g.cs.ForEachLocal(r, func(_ int, c dbg.Contig) {
		if c.Depth > maxDepth {
			maxDepth = c.Depth
		}
	})
	maxDepth = pgas.AllReduce(r, maxDepth, pgas.ReduceMax)
	tau := 1.0
	aliveShard := g.alive.shards[r.ID()]
	for round := 0; round < maxPruneRounds && tau < maxDepth; round++ {
		var removals []int
		g.cs.ForEachLocal(r, func(i int, c dbg.Contig) {
			if !aliveShard[i] || len(c.Seq) > 2*opts.K {
				return
			}
			left, right := g.neighborsOf(r, reader, c)
			neighborDepth := g.meanNeighborDepth(append(append([]endRef(nil), left...), right...))
			if neighborDepth == 0 {
				return
			}
			limit := tau
			if b := pruneBeta * neighborDepth; b < limit {
				limit = b
			}
			if c.Depth <= limit {
				removals = append(removals, c.ID)
			}
		})
		r.Barrier()
		// Convergence is a global decision: the all-reduced count makes every
		// rank leave the loop in the same round.
		if pgas.AllReduce(r, g.applyRemovals(r, removals), pgas.ReduceSum) == 0 {
			break
		}
		tau *= 1 + pruneAlpha
	}
}
