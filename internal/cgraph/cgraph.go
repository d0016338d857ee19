// Package cgraph implements the contig-graph refinement stages of iterative
// contig generation (Sections II-D and II-E of the paper): bubble merging,
// hair (dead-end tip) removal, iterative depth-based graph pruning
// (Algorithm 2), and compaction of unambiguous contig chains.
//
// The bubble-contig graph is orders of magnitude smaller than the k-mer de
// Bruijn graph: its vertices are whole contigs and its edges are shared
// junction (k-1)-mers. The contigs stay distributed (dist.Set partitioned by
// content hash) and the junction index is a distributed hash table built
// once with the aggregated update-only phase. Refinement is owner-computes:
// in each pass the owner of every junction pushes, in one exchange, each
// examined contig end's owner the other live contigs at that junction, with
// their lengths and depths, and the contig's owner applies the bubble, hair
// or prune rule locally. Every removal names the owner's own contig, and one
// tombstone exchange drops the dead contigs from the junction lists, which
// then index exactly the live contigs. Compaction's links are decided by the
// junction owners and pushed to both contigs' owners; the only one-sided
// reads left are the chain walks' member fetches and the rare bubble tie that
// compares two arms' sequences.
package cgraph

import (
	"cmp"
	"slices"

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

// Wire bytes of the records refinement moves: a junction ref, a junction
// index update (key and ref), a pushed neighbour view (contig, end and the
// neighbour's ref) and a tombstone (key and contig ID).
const (
	refWireSize       = 26
	entryWireSize     = 17 + refWireSize
	viewWireSize      = 9 + refWireSize
	tombstoneWireSize = 17 + 8
)

// endRef records that a contig end touches a junction, with what the
// neighbour rules and the link decision read of the contig, so that neither
// fetches it.
type endRef struct {
	ContigID int
	// End is 'L' if the junction is the contig's (k-1)-prefix, 'R' if it is
	// the (k-1)-suffix, in the contig's stored orientation.
	End   byte
	Len   int
	Depth float64
	// Fwd reports that the end's stored (k-1)-mer is the canonical key
	// itself, not its reverse complement.
	Fwd bool
}

// view is one record of a pass's push: contig ContigID's end End shares its
// junction with the live contig end Nb.
type view struct {
	ContigID int
	End      byte
	Nb       endRef
}

// tombstone tells a junction's owner that contig ContigID died.
type tombstone struct {
	Key      seq.Kmer
	ContigID int
}

// junctionKey returns the canonical (k-1)-mer key of a contig endpoint and
// whether the stored (k-1)-mer is that key, or ok=false for contigs shorter
// than k-1.
func junctionKey(c dbg.Contig, k int, end byte) (key seq.Kmer, fwd, ok bool) {
	j := k - 1
	if len(c.Seq) < j {
		return seq.Kmer{}, false, false
	}
	var s []byte
	if end == 'L' {
		s = c.Seq[:j]
	} else {
		s = c.Seq[len(c.Seq)-j:]
	}
	km, err := seq.KmerFromBytes(s, j)
	if err != nil {
		return seq.Kmer{}, false, false
	}
	canon, flipped := km.Canonical()
	return canon, !flipped, true
}

// graph is the per-rank view of the distributed bubble-contig graph.
type graph struct {
	k         int
	cs        *dbg.ContigSet
	aggregate bool
	*shared
	// dead flags the calling rank's contigs that a pass removed, by shard
	// index.
	dead []bool
	// creader fetches a bubble neighbour's sequence, for exact ties only.
	creader *dist.Reader[dbg.Contig]
}

// shared is what the ranks of one Refine share, allocated once by
// pgas.Shared: the junction index, whose partitions only their owners
// touch, and the per-owner chain members compaction's walks fetch.
type shared struct {
	junction *dht.Map[seq.Kmer, []endRef]
	members  [][]member
}

// buildJunctionIndex stores the endpoints of the local contigs in the
// distributed junction index (Global Update-Only phase with aggregation). The
// index is never frozen: only each partition's owner reads it.
func (g *graph) buildJunctionIndex(r *pgas.Rank) {
	combine := func(existing, update []endRef, found bool) []endRef {
		return append(existing, update...)
	}
	u := g.junction.NewUpdater(r, combine, 256, g.aggregate)
	g.cs.ForEachLocal(r, func(_ int, c dbg.Contig) {
		for _, end := range []byte{'L', 'R'} {
			if key, fwd, ok := junctionKey(c, g.k, end); ok {
				u.Update(key, []endRef{{ContigID: c.ID, End: end, Len: len(c.Seq), Depth: c.Depth, Fwd: fwd}})
			}
		}
		r.Compute(2)
	})
	u.Flush()
}

// exchange routes items to the ranks dest names in one exchange and returns
// the items the calling rank received. With aggregation off every remote
// item is charged as its own message, as the Updater charges it.
func exchange[T any](r *pgas.Rank, items []T, dest func(T) int, wire int, aggregate bool) []T {
	if !aggregate {
		pgas.ChargeUnaggregated(r, items, func(_ int, it T) int { return dest(it) })
	}
	return dist.Exchange(r, items, dest, func(T) int { return wire })
}

func ownerOf(id int) int { owner, _ := dist.Locate(id); return owner }

// neighbours is what a pass tells one of the calling rank's contigs: the
// other live contig ends at its left and at its right junction, each in the
// junction list's stored order.
type neighbours struct {
	c           dbg.Contig
	idx         int
	left, right []endRef
}

// push is one pass's exchange: every junction owner sends, for each live
// ref examine selects, the other live refs at the junction to the ref's
// owner. It returns the neighbours of each calling-rank contig that was
// examined and has any, in shard order.
func (g *graph) push(r *pgas.Rank, examine func(endRef) bool) []neighbours {
	var out []view
	g.junction.ForEachLocal(r, func(_ seq.Kmer, refs []endRef) {
		for _, ref := range refs {
			if !examine(ref) {
				continue
			}
			for _, nb := range refs {
				if nb.ContigID != ref.ContigID {
					out = append(out, view{ContigID: ref.ContigID, End: ref.End, Nb: nb})
				}
			}
		}
	})
	got := exchange(r, out, func(v view) int { return ownerOf(v.ContigID) }, viewWireSize, g.aggregate)
	// Views of one contig end come from one junction owner, contiguous and
	// in stored order; a stable sort groups them by contig, left end first.
	slices.SortStableFunc(got, func(a, b view) int {
		return cmp.Or(cmp.Compare(a.ContigID, b.ContigID), cmp.Compare(a.End, b.End))
	})
	r.Compute(float64(len(got)))
	local := g.cs.Local(r)
	var ns []neighbours
	for _, v := range got {
		_, idx := dist.Locate(v.ContigID)
		if len(ns) == 0 || ns[len(ns)-1].idx != idx {
			ns = append(ns, neighbours{c: local[idx], idx: idx})
		}
		n := &ns[len(ns)-1]
		if v.End == 'L' {
			n.left = append(n.left, v.Nb)
		} else {
			n.right = append(n.right, v.Nb)
		}
	}
	return ns
}

// bury marks the calling rank's contigs at the given shard indices dead and
// drops them from the junction lists with one tombstone exchange; each
// junction owner removes the refs in place, keeping the others' order.
func (g *graph) bury(r *pgas.Rank, dying []int) {
	local := g.cs.Local(r)
	var out []tombstone
	for _, idx := range dying {
		g.dead[idx] = true
		c := local[idx]
		for _, end := range []byte{'L', 'R'} {
			if key, _, ok := junctionKey(c, g.k, end); ok {
				out = append(out, tombstone{Key: key, ContigID: c.ID})
			}
		}
	}
	got := exchange(r, out, func(t tombstone) int { return g.junction.Owner(t.Key) }, tombstoneWireSize, g.aggregate)
	for _, t := range got {
		g.junction.UpdateLocal(r, t.Key, func(refs *[]endRef, found bool) bool {
			kept := (*refs)[:0]
			for _, ref := range *refs {
				if ref.ContigID != t.ContigID {
					kept = append(kept, ref)
				}
			}
			*refs = kept
			return found
		})
	}
}

// Refine runs the configured refinement passes over the distributed contig
// set. Collective: every rank passes the shared set, and Result.Set is the
// refined (filtered or compacted, renumbered) set.
func Refine(r *pgas.Rank, cs *dbg.ContigSet, opts Options) Result {
	sh := pgas.Shared(r, func() *shared {
		return &shared{
			junction: dht.NewMap[seq.Kmer, []endRef](r.Machine(), seq.Kmer.Hash, entryWireSize),
			members:  make([][]member, r.NRanks()),
		}
	})
	g := &graph{
		k:         opts.K,
		cs:        cs,
		aggregate: opts.Aggregate,
		shared:    sh,
		dead:      make([]bool, cs.Len(r)),
		creader:   cs.NewReader(r, 1<<16),
	}
	g.buildJunctionIndex(r)

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
		set := g.compact(r)
		// The input set's contigs were folded into the compacted set.
		cs.Release(r)
		return Result{Set: set}
	}
	i := -1
	cs.FilterLocal(r, func(dbg.Contig) bool { i++; return !g.dead[i] })
	dbg.RenumberContigs(r, cs)
	return Result{Set: cs}
}

// losesTo reports whether contig x is the arm of a bubble with y that
// dies: the shallower one, then the one dbg.ContigLess orders second (the
// shorter, then the lexicographically larger). The rule depends only on the
// two contigs' content, so both arms' owners agree at any rank count. Only an
// exact tie on depth and length fetches y's sequence.
func (g *graph) losesTo(x dbg.Contig, y endRef) bool {
	switch {
	case x.Depth != y.Depth:
		return x.Depth < y.Depth
	case len(x.Seq) != y.Len:
		return len(x.Seq) < y.Len
	default:
		return !dbg.ContigLess(x, g.creader.Get(y.ContigID))
	}
}

// mergeBubbles removes the shallower arm of every SNP bubble: live contig x
// dies if a live contig y of similar length that wins against it either
// touches both of x's junctions or touches one of them with both of its own
// ends (then y's two junctions are that one, and x touches both of y's).
func (g *graph) mergeBubbles(r *pgas.Rank) {
	var dying []int
	for _, n := range g.push(r, func(endRef) bool { return true }) {
		if g.losesABubble(n) {
			dying = append(dying, n.idx)
		}
	}
	g.bury(r, dying)
}

// losesABubble applies mergeBubbles' rule to one contig's neighbours.
func (g *graph) losesABubble(n neighbours) bool {
	candidate := func(y endRef, bubble bool) bool {
		return bubble && similarLength(len(n.c.Seq), y.Len, bubbleLenTolerance) && g.losesTo(n.c, y)
	}
	for _, y := range n.left {
		if candidate(y, touches(n.right, y.ContigID, 1)) || candidate(y, touches(n.left, y.ContigID, 2)) {
			return true
		}
	}
	for _, y := range n.right {
		if candidate(y, touches(n.right, y.ContigID, 2)) {
			return true
		}
	}
	return false
}

// touches reports whether contig id has at least times ends among refs.
func touches(refs []endRef, id, times int) bool {
	for _, ref := range refs {
		if ref.ContigID == id {
			if times--; times == 0 {
				return true
			}
		}
	}
	return false
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
// the other, where some sibling at the attachment point is deeper than the
// tip.
func (g *graph) removeHair(r *pgas.Rank) {
	maxLen := hairMaxLen(g.k)
	var dying []int
	for _, n := range g.push(r, func(ref endRef) bool { return ref.Len < maxLen }) {
		attached := n.left
		if len(n.right) > 0 {
			if len(n.left) > 0 {
				continue // attached at both ends
			}
			attached = n.right
		}
		for _, nb := range attached {
			if nb.Depth > n.c.Depth {
				dying = append(dying, n.idx)
				break
			}
		}
	}
	g.bury(r, dying)
}

// prune implements Algorithm 2: iteratively remove short contigs whose depth
// is at most min(tau, beta * neighbour depth), growing tau geometrically
// until a round removes nothing on any rank.
func (g *graph) prune(r *pgas.Rank) {
	maxDepth := 0.0
	g.cs.ForEachLocal(r, func(_ int, c dbg.Contig) {
		if c.Depth > maxDepth {
			maxDepth = c.Depth
		}
	})
	maxDepth = pgas.AllReduce(r, maxDepth, pgas.ReduceMax)
	tau := 1.0
	for round := 0; round < maxPruneRounds && tau < maxDepth; round++ {
		var dying []int
		for _, n := range g.push(r, func(ref endRef) bool { return ref.Len <= 2*g.k }) {
			// The left neighbours' depths, then the right's, each in stored
			// order: the mean is the same float sum at any rank count.
			var sum float64
			for _, nb := range n.left {
				sum += nb.Depth
			}
			for _, nb := range n.right {
				sum += nb.Depth
			}
			neighborDepth := sum / float64(len(n.left)+len(n.right))
			if neighborDepth == 0 {
				continue
			}
			limit := tau
			if b := pruneBeta * neighborDepth; b < limit {
				limit = b
			}
			if n.c.Depth <= limit {
				dying = append(dying, n.idx)
			}
		}
		g.bury(r, dying)
		// Convergence is a global decision: the all-reduced count makes every
		// rank leave the loop in the same round.
		if pgas.AllReduce(r, len(dying), pgas.ReduceSum) == 0 {
			break
		}
		tau *= 1 + pruneAlpha
	}
}
