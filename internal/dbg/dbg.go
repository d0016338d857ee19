// Package dbg implements the de Bruijn graph construction and traversal
// stage of the pipeline (Section II-C of the paper).
//
// Each vertex is a canonical k-mer with a two-letter extension code giving
// the unique base that precedes and follows it in the read set (or a fork /
// dead-end marker); the vertices live in per-rank sorted shards (Graph), not
// in the paper's distributed hash table. Contigs are maximal paths of k-mers
// whose consecutive extensions agree in both directions ("UU contigs").
//
// The key metagenome-specific change relative to HipMer is the
// depth-dependent high-quality-extension threshold: a k-mer with depth d is
// extended if at most thq = max(tbase, e*d) observations contradict its most
// common extension, instead of a single global threshold. This prevents
// high-coverage genomes from fragmenting without sacrificing low-coverage
// ones, and it is what the Table I ablation exercises.
package dbg

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"slices"
	"sync"

	"mhmgo/internal/dht"
	"mhmgo/internal/dist"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// Entry is the value stored for each canonical k-mer vertex of the graph.
type Entry struct {
	// Count is the k-mer's depth (number of occurrences in the reads).
	Count uint32
	// Ext holds the classified left/right extension characters in the
	// canonical orientation ('A','C','G','T', 'F' fork, 'X' none).
	Ext seq.ExtPair
}

// Contig is a confidently assembled sequence produced by graph traversal.
type Contig struct {
	// ID is a dense identifier assigned after traversal (unique across ranks).
	ID int
	// Seq is the contig sequence.
	Seq []byte
	// Depth is the mean depth of the contig's k-mers.
	Depth float64
}

// Len returns the contig length in bases.
func (c Contig) Len() int { return len(c.Seq) }

// WireSize returns the wire bytes charged when a contig is routed or
// gathered: the ID and depth words plus the sequence itself.
func (c Contig) WireSize() int { return 16 + len(c.Seq) }

// ThresholdOptions selects how the high-quality extension threshold is
// computed when classifying extensions.
type ThresholdOptions struct {
	// TBase is the hard lower limit of the threshold (tbase in the paper).
	TBase uint32
	// ErrorRate is the single-parameter sequencing error model (e in the
	// paper); the depth-dependent threshold is max(TBase, ErrorRate*depth).
	ErrorRate float64
	// GlobalTHQ, when > 0, disables the depth-dependent rule and uses this
	// fixed threshold for every k-mer (the HipMer behaviour, kept for the
	// baseline and the ablation study).
	GlobalTHQ uint32
	// MinCount is the minimum extension support for a call.
	MinCount uint32
}

// THQFor returns the high-quality-extension threshold for a k-mer of the
// given depth.
func (t ThresholdOptions) THQFor(depth uint32) uint32 {
	if t.GlobalTHQ > 0 {
		return t.GlobalTHQ
	}
	dyn := uint32(t.ErrorRate * float64(depth))
	if dyn < t.TBase {
		return t.TBase
	}
	return dyn
}

// Graph is the distributed de Bruijn graph: shards[p] holds the vertices
// rank p owns by the counts table's owner rule, in sorted k-mer order
// (seq.Kmer.Less). Build writes each shard on its own rank, and no rank reads
// another's. Every rank holds the same pointer; a Graph must not be copied.
type Graph struct {
	K      int
	owner  func(seq.Kmer) int // the counts table's Owner; routes the claims
	shards [][]vertex

	// vertices memoizes the vertex count for Traverse's step bound: the
	// first rank to need it sums the P shard sizes for all.
	vertices     int
	verticesOnce sync.Once
}

// vertexCount returns the number of vertices.
func (g *Graph) vertexCount() int {
	g.verticesOnce.Do(func() {
		for _, s := range g.shards {
			g.vertices += len(s)
		}
	})
	return g.vertices
}

// newGraph returns an empty graph on ranks shards for k-mers of length k
// owned by owner. k must be odd: an even k-mer can be its own reverse
// complement, a vertex whose two orientations are one node (see node).
// core.Config.KValues never asks for an even k.
func newGraph(k int, owner func(seq.Kmer) int, ranks int) *Graph {
	if k%2 == 0 {
		panic(fmt.Sprintf("dbg: k=%d is even; the graph needs odd k", k))
	}
	return &Graph{K: k, owner: owner, shards: make([][]vertex, ranks)}
}

// Build classifies the k-mer counts into graph vertices. It is collective:
// each rank classifies the counts it owns into its own shard and sorts it,
// so the phase is purely local and the graph is owned as the counts are.
// Returns the same graph on all ranks.
func Build(r *pgas.Rank, counts *dht.Map[seq.Kmer, seq.KmerCount], k int, topts ThresholdOptions) *Graph {
	g := pgas.Shared(r, func() *Graph { return newGraph(k, counts.Owner, r.NRanks()) })
	if topts.MinCount == 0 {
		topts.MinCount = 1
	}
	local := make([]vertex, 0, counts.LocalLen(r.ID()))
	counts.ForEachLocal(r, func(km seq.Kmer, kc seq.KmerCount) {
		thq := topts.THQFor(kc.Count)
		e := Entry{Count: kc.Count}
		e.Ext.Left = kc.Left.Classify(topts.MinCount, thq)
		e.Ext.Right = kc.Right.Classify(topts.MinCount, thq)
		local = append(local, vertex{km: km, e: e})
		r.Compute(1) // one op per vertex stored; one Compute(n) would round differently
	})
	g.shards[r.ID()] = seq.SortByKmer(local, k, vertexKmer)
	r.Barrier()
	return g
}

// observedExt returns the extension pair as seen in one orientation of the
// vertex (true = canonical).
func observedExt(e Entry, forward bool) seq.ExtPair {
	if forward {
		return e.Ext
	}
	return e.Ext.Swap()
}

// vertex is one vertex of a rank's shard.
type vertex struct {
	km seq.Kmer
	e  Entry
}

// A node is one orientation of a vertex: its canonical k-mer read forward
// (orientation 0) or as the reverse complement (orientation 1). With odd k no
// k-mer is its own reverse complement, so the two are always distinct. The
// node's ID is dist.ID(owner, 2i+o), where i is the vertex's index in its
// owner's shard: the owner reaches a node by index, without a
// hash probe, and a node's mirror — the same vertex read the other way — is
// ID^1. Links between nodes are mutually agreeing extensions, so every node
// has at most one predecessor and one successor, and x precedes y exactly
// when y's mirror precedes x's mirror: the nodes form simple paths and
// cycles, and the mirror of a path is a path.
//
// node is a node's list-ranking state. While dist < 0, ptr is the ID of a
// node before it on its path and -dist the number of steps from that node to
// this one: its predecessor, one step back, until rankPaths runs; then, for a
// segment head before doubling round j, the tail of the segment 2^j segments
// back. Once dist >= 0, ptr is the ID of its path's start and dist its
// distance from that start.
type node struct {
	ptr  int
	dist int32
}

// claim is one node's message to its successor: "I precede you". It names
// the successor by its canonical key and by the orientation of that key that
// reads as the observed successor (bit 0), and carries the claimant's first
// observed base (bits 1-2) and its node ID.
type claim struct {
	key  seq.Kmer
	bits uint8
	from int
}

// claimWireSize is the wire bytes of one claim: the packed k-mer (two words
// plus k), the bits byte and the claimant's ID word.
const claimWireSize = 26

// newClaim returns the claim of node from, read as obs, whose observed right
// extension is the base code.
func newClaim(obs seq.Kmer, code byte, from int) claim {
	key, wasRC := obs.AppendBase(code).Canonical()
	var orient uint8
	if wasRC {
		orient = 1
	}
	return claim{key: key, bits: obs.FirstBase()<<1 | orient, from: from}
}

// vertexKmer is a vertex's sort key: its canonical k-mer.
func vertexKmer(v *vertex) seq.Kmer { return v.km }

// markPredecessors returns the initial list-ranking state of the calling
// rank's nodes (index 2i+o for local[i] in orientation o), found with one
// claim exchange instead of one Get per node. Every node whose observed right
// extension is a base c claims its successor obs[1:]+c, carrying its own
// first base b and its ID; the claim goes to the successor's owner, g.owner
// (the counts table's minimizer rule), so most successors share their
// predecessor's owner: such a claim is resolved in place, not routed through
// the exchange, which would charge nothing for it but hold it resident. A node
// whose observed left extension is the base b has an agreeing predecessor
// exactly when it received a claim carrying b: the predecessor exists (it
// sent the claim) and its right extension points back here (that is what it
// claimed). Only one claimant can carry b, so that claim names the
// predecessor, and the node starts as {ptr: predecessor, dist: -1}. A node
// without one is a path start, {ptr: its own ID, dist: 0}. Collective.
func (g *Graph) markPredecessors(r *pgas.Rank, local []vertex) []node {
	me := r.ID()
	var own, claims []claim
	var dests []int
	add := func(c claim) {
		if d := g.owner(c.key); d != me {
			claims, dests = append(claims, c), append(dests, d)
		} else {
			own = append(own, c)
		}
	}
	for i, v := range local {
		if code, ok := seq.CharToBase(v.e.Ext.Right); ok {
			add(newClaim(v.km, code, dist.ID(me, 2*i)))
		}
		if code, ok := seq.CharToBase(v.e.Ext.Left); ok {
			add(newClaim(v.km.ReverseComplement(), seq.ComplementCode(code), dist.ID(me, 2*i+1)))
		}
	}
	r.Compute(float64(len(claims) + len(own)))
	received := pgas.ExchangeFunc(r, claims,
		func(i int, _ claim) int { return dests[i] },
		func(claim) int { return claimWireSize })
	// Resolving a claim is one owner-local probe, the charge of the local
	// Get it replaces.
	r.Compute(float64(len(received) + len(own)))
	nodes := make([]node, 2*len(local))
	for i := range nodes {
		nodes[i] = node{ptr: dist.ID(me, i)}
	}
	index := newVertexIndex(local)
	for _, in := range [][]claim{received, own} {
		for _, c := range in {
			i := index.find(local, c.key)
			if i < 0 {
				continue
			}
			o := int(c.bits & 1)
			if leftBaseIs(observedExt(local[i].e, o == 0), c.bits>>1) {
				nodes[2*i+o] = node{ptr: c.from, dist: -1}
			}
		}
	}
	r.ReleaseResident(len(received) * claimWireSize)
	return nodes
}

// leftBaseIs reports whether the left extension of ext is the base code b.
func leftBaseIs(ext seq.ExtPair, b byte) bool {
	code, ok := seq.CharToBase(ext.Left)
	return ok && code == b
}

// vertexIndex maps a rank's vertex keys to their positions in its vertex
// list: linear probing over int32 slots, sized once to at least twice the
// vertex count, so a lookup is one hash and a short probe with no
// allocation.
type vertexIndex struct {
	slots []int32 // position+1; 0 is empty
	shift uint
}

// newVertexIndex indexes the positions of local's (distinct) keys.
func newVertexIndex(local []vertex) vertexIndex {
	n := bits.Len(uint(2 * len(local)))
	ix := vertexIndex{slots: make([]int32, 1<<n), shift: uint(64 - n)}
	mask := len(ix.slots) - 1
	for i := range local {
		s := ix.home(local[i].km)
		for ix.slots[s] != 0 {
			s = (s + 1) & mask
		}
		ix.slots[s] = int32(i + 1)
	}
	return ix
}

// home is km's first slot: the top bits of its hash times φ64.
func (ix vertexIndex) home(km seq.Kmer) int {
	return int(km.Hash() * 0x9E3779B97F4A7C15 >> ix.shift)
}

// find returns the position of km in local, or -1.
func (ix vertexIndex) find(local []vertex, km seq.Kmer) int {
	mask := len(ix.slots) - 1
	for s := ix.home(km); ix.slots[s] != 0; s = (s + 1) & mask {
		if i := int(ix.slots[s] - 1); local[i].km == km {
			return i
		}
	}
	return -1
}

// TraverseOptions controls contig generation. It has no fields: the
// pipeline's length filter is core.Config.MinContigLen, applied to the final
// contig set.
type TraverseOptions struct{}

// Traverse generates contigs from the graph: every path of nodes (see node)
// that has a start, emitted once, in canonical orientation. Collective: every
// rank returns only the contigs it emitted; use DistributeContigs to build
// the owner-distributed set. Start-less cycles are not emitted.
//
// No rank walks a path. Traverse ranks the paths as linked lists in
// aggregated exchanges and reads the graph only owner-locally:
//
//  1. markPredecessors: one claim exchange gives every node its
//     predecessor's ID, or marks it a path start; a claim whose successor
//     the claimant's rank owns, as most are under minimizer ownership, is
//     resolved in place. A node's successor is its mirror's predecessor,
//     mirrored, so no second exchange is needed.
//  2. rankPaths: each rank chains its nodes into segments, maximal runs of
//     consecutive path nodes it owns, with no exchange; ⌈log₂ maxSteps⌉+1
//     rounds of weighted pointer doubling over the segment heads, one
//     exchange each, give every head its start and distance, and a last
//     local pass gives them to every other node of its segment.
//  3. assemble: one exchange sends each vertex's base and depth to the start
//     that emits its path, which places them by distance.
//
// The contigs are the ones a walk from every start would give: a walk stops
// at a path's end, where it would reach its start's own vertex again (a
// hairpin: a (k+1)-bp palindrome in the genome), or after maxSteps steps; and
// of a path and its mirror only the canonical sequence is kept. The step
// bound and the rounds come from the global vertex count: no path has more
// than twice as many nodes as the graph has vertices, fewer than
// 2^rounds.
//
// Claims, records and contigs are generated in shard order, sorted by
// k-mer, so the same charges fold into the clock in the same order every
// run.
func Traverse(r *pgas.Rank, g *Graph, _ TraverseOptions) []Contig {
	maxSteps := g.vertexCount() + 1
	local := g.shards[r.ID()]
	r.Compute(float64(len(local))) // one op per vertex read
	nodes := g.markPredecessors(r, local)
	rankPaths(r, nodes, maxSteps)
	out := g.assemble(r, local, nodes, maxSteps)
	r.Barrier()
	return out
}

// jump is one pointer-doubling record: a segment head's state advanced to its
// segment's tail, for the head that sits 2^j segments after it.
type jump struct {
	to int
	node
}

// jumpWireSize is the wire bytes of one jump: two ID words and the distance.
const jumpWireSize = 20

// nodeOwner returns the rank owning a node ID.
func nodeOwner(id int) int {
	owner, _ := dist.Locate(id)
	return owner
}

// rankPaths gives every node on a path its start and its distance from it,
// in three steps. Collective.
//
//  1. chainSegments links, on this rank alone, each node to the nodes after
//     it that this rank also owns. A segment is a maximal run of consecutive
//     path nodes on one rank; its head is a path start or a node whose
//     predecessor another rank owns, and its tail a path end or a node whose
//     successor another rank owns. The mirror of a segment is a segment, whose
//     head mirrors this one's tail.
//  2. ⌈log₂ maxSteps⌉+1 rounds of weighted push-form pointer doubling over
//     the heads only (pushRound), one exchange each: enough for a path of 2·maxSteps
//     segments, and no path has more than twice as many nodes as the graph
//     has vertices.
//  3. Every other node of a segment whose head finished takes the head's
//     start, and the head's distance plus its offset in the segment.
func rankPaths(r *pgas.Rank, nodes []node, maxSteps int) {
	order, segs := chainSegments(r, nodes)
	live := slices.Clone(segs)
	for range bits.Len(uint(maxSteps-1)) + 1 {
		live = pushRound(r, nodes, order, live)
	}
	for _, s := range segs {
		h := nodes[order[s.lo]]
		if h.dist < 0 {
			continue // a start-less cycle: its nodes stay unfinished
		}
		for o, x := range order[s.lo+1 : s.hi] {
			nodes[x] = node{ptr: h.ptr, dist: h.dist + int32(o) + 1}
		}
	}
	r.Compute(float64(len(order) - len(segs)))
}

// segment is a run of order (see chainSegments): order[lo] is its head and
// order[hi-1] its tail.
type segment struct{ lo, hi int32 }

// chainSegments returns the calling rank's nodes that lie on segments, each
// segment's in path order, and the segments. It reads the nodes as
// markPredecessors left them: a node's successor is its mirror's
// predecessor, mirrored, and is on this rank exactly when that predecessor
// is. The nodes of a start-less cycle wholly on this rank have no head and
// are left out.
func chainSegments(r *pgas.Rank, nodes []node) ([]int32, []segment) {
	me := r.ID()
	hasLocalPred := func(n node) bool { return n.dist < 0 && nodeOwner(n.ptr) == me }
	order := make([]int32, 0, len(nodes))
	var segs []segment
	for head := range nodes {
		if hasLocalPred(nodes[head]) {
			continue
		}
		lo := int32(len(order))
		for x := head; ; {
			order = append(order, int32(x))
			m := nodes[x^1]
			if !hasLocalPred(m) {
				break
			}
			_, i := dist.Locate(m.ptr)
			x = i ^ 1
		}
		segs = append(segs, segment{lo: lo, hi: int32(len(order))})
	}
	r.Compute(float64(len(nodes)))
	return order, segs
}

// pushRound runs one doubling round j over the live segments and returns
// those that stay live. A head h whose path goes on for at least 2^j more
// segments — exactly when its mirror segment's head has not finished — sends
// its state, advanced to its own tail, to the head 2^j segments after it,
// which is that mirror head's pointer, mirrored. The receiver's pointer names
// h's tail: it takes over h's pointer and adds the two weights, or, if h has
// finished, finishes at the tail's distance plus its own weight. Every
// unfinished head receives exactly one record per round and a head sends at
// most one, so a round is one exchange of at most one record per segment.
// After round j every head fewer than 2^(j+1) segments from its start has
// finished; heads of start-less cycles never do. Collective.
func pushRound(r *pgas.Rank, nodes []node, order []int32, live []segment) []segment {
	out := make([]jump, 0, len(live))
	kept := live[:0]
	for _, s := range live {
		m := nodes[order[s.hi-1]^1]
		if m.dist >= 0 {
			continue
		}
		kept = append(kept, s)
		h, span := nodes[order[s.lo]], s.hi-s.lo-1
		if h.dist >= 0 {
			h.dist += span
		} else {
			h.dist -= span
		}
		out = append(out, jump{to: m.ptr ^ 1, node: h})
	}
	r.Compute(float64(len(out)))
	in := pgas.ExchangeFunc(r, out,
		func(_ int, j jump) int { return nodeOwner(j.to) },
		func(jump) int { return jumpWireSize })
	r.Compute(float64(len(in)))
	for _, j := range in {
		_, i := dist.Locate(j.to)
		n := &nodes[i]
		if j.dist >= 0 {
			n.dist = j.dist - n.dist
		} else {
			n.dist += j.dist
		}
		n.ptr = j.ptr
	}
	r.ReleaseResident(len(in) * jumpWireSize)
	return kept
}

// piece is one vertex's contribution to the contig of its path: the base
// that its node appends and its depth, for the start that emits the path.
type piece struct {
	to    int    // the emitting start's node ID
	dist  int32  // the node's distance from that start
	count uint32 // the vertex's depth
	base  byte   // the last base of the node's observed k-mer
}

// pieceWireSize is the wire bytes of one piece.
const pieceWireSize = 17

// slot is a placed piece.
type slot struct {
	count uint32
	base  byte
}

// observedKmer returns the k-mer of node orientation o (0 = canonical).
func observedKmer(km seq.Kmer, o int) seq.Kmer {
	if o == 0 {
		return km
	}
	return km.ReverseComplement()
}

// lastBase returns the last base of the k-mer of node orientation o.
func lastBase(km seq.Kmer, o int) byte {
	if o == 0 {
		return km.BaseAt(int(km.K) - 1)
	}
	return seq.ComplementCode(km.FirstBase())
}

// assemble builds the contigs of the paths this rank emits, after rankPaths.
// A path P from start S to end E has a mirror path from E's mirror to S's
// mirror, which carries the reverse complement of its sequence; the start
// that emitsBefore the other emits, in canonical orientation. Every vertex of
// P is one node of P and one of its mirror, so each vertex sends one piece,
// from its node on the emitted path (on a hairpin, the one nearer the
// start), to that start's owner. A start learns all it needs without a
// message: its mirror is the last node of the mirror path, so the mirror's
// pointer is the other start and its distance the path's last position L,
// which lays out the pieces by count and offset, with no sort.
//
// A hairpin path is its own mirror: S's mirror is E, both orientations of
// each vertex lie on it, at distances d and L-d, and the one start receives
// only the first half. The second half is the reverse complement of the
// first, and the walk it stands for stops one node short of E, S's own
// vertex; it is kept only if that sequence is canonical. Collective.
func (g *Graph) assemble(r *pgas.Rank, local []vertex, nodes []node, maxSteps int) []Contig {
	var pieces []piece
	for i, v := range local {
		o, at := 0, nodes[2*i]
		if at.dist < 0 {
			continue // a start-less cycle
		}
		if b := nodes[2*i+1]; emitsBefore(b.ptr, at.ptr) || (b.ptr == at.ptr && b.dist < at.dist) {
			o, at = 1, b
		}
		if at.dist > 0 {
			pieces = append(pieces, piece{to: at.ptr, dist: at.dist, count: v.e.Count, base: lastBase(v.km, o)})
		}
	}
	r.Compute(float64(len(pieces)))
	in := pgas.ExchangeFunc(r, pieces,
		func(_ int, p piece) int { return nodeOwner(p.to) },
		func(piece) int { return pieceWireSize })
	r.Compute(float64(len(in)))

	// Lay out the paths this rank emits by count and offset.
	type emitted struct {
		s, first int
		hairpin  bool
	}
	var paths []emitted
	first := make([]int, len(nodes))
	total := 0
	for s, n := range nodes {
		if n.dist != 0 {
			continue
		}
		id, mirror := dist.ID(r.ID(), s), nodes[s^1]
		hairpin := mirror.ptr == id
		if hairpin || emitsBefore(id, mirror.ptr) {
			first[s] = total
			paths = append(paths, emitted{s: s, first: total, hairpin: hairpin})
			total += received(int(mirror.dist), hairpin)
		}
	}
	slots := make([]slot, total)
	for _, p := range in {
		_, s := dist.Locate(p.to)
		slots[first[s]+int(p.dist)-1] = slot{count: p.count, base: p.base}
	}
	r.ReleaseResident(len(in) * pieceWireSize)

	var out []Contig
	var path []byte
	var depths []uint32
	for _, e := range paths {
		// A walk from the start keeps the path up to its last node, at
		// distance L, but stops one node short of a hairpin's, which is the
		// start's own vertex, and after maxSteps steps.
		L := int(nodes[e.s^1].dist)
		last := L
		if e.hairpin {
			last--
		}
		last = min(last, maxSteps)
		v := local[e.s/2]
		own := slots[e.first : e.first+received(L, e.hairpin)]
		path = observedKmer(v.km, e.s&1).AppendBases(path[:0])
		depths = append(depths[:0], v.e.Count)
		for d := 1; d <= last; d++ {
			if d <= len(own) {
				path = append(path, seq.BaseToChar(own[d-1].base))
				depths = append(depths, own[d-1].count)
				continue
			}
			// The hairpin's second half: node d is node L-d read the other
			// way, so its last base complements base L-d of the sequence.
			path = append(path, seq.ComplementChar(path[L-d]))
			depths = append(depths, own[L-d-1].count)
		}
		r.Compute(float64(last))
		flip := seq.GreaterThanRC(path)
		if flip && e.hairpin {
			continue
		}
		contigSeq := make([]byte, 0, len(path))
		if flip {
			contigSeq = seq.AppendReverseComplement(contigSeq, path)
		} else {
			contigSeq = append(contigSeq, path...)
		}
		out = append(out, Contig{Seq: contigSeq, Depth: seq.MeanDepthFromCounts(depths)})
	}
	return out
}

// emitsBefore reports whether the path start a comes before the start b in
// the order that picks which of a path's two starts emits it: by index in the
// owner's nodes, then by owner. ID order is owner-major: it would hand every
// path to the lower of its starts' ranks, so rank 0 would emit about twice
// its share and the last rank almost nothing. Ordered by index first, the
// emitting work spreads over the ranks.
func emitsBefore(a, b int) bool {
	ra, ia := dist.Locate(a)
	rb, ib := dist.Locate(b)
	return ia < ib || (ia == ib && ra < rb)
}

// received returns how many pieces the start of a path whose last node is at
// distance L receives: one per node after the start, or, on a hairpin, one
// per vertex after the start's own.
func received(L int, hairpin bool) int {
	if hairpin {
		return (L - 1) / 2
	}
	return L
}

// ContigSet is the distributed contig collection the pipeline passes between
// stages: contigs partitioned by content over the ranks, each carrying the
// global ID dist.ID(owner, index in the owner's shard).
type ContigSet = dist.Set[Contig]

// ContigOwner is the owner function of the distributed contig set: a
// well-mixed content hash, so exact duplicates (palindromic paths emitted
// from both ends, possibly on different ranks) always collide on the same
// owner and owner-local dedup is global dedup. Contigs are emitted in
// canonical orientation, so duplicates are byte-identical.
func ContigOwner(c Contig) int {
	h := fnv.New64a()
	h.Write(c.Seq)
	// Mask to a non-negative int before the modulo the Set applies.
	return int(h.Sum64() & (1<<63 - 1))
}

// ContigLess is the deterministic contig ordering used within each shard:
// seq.LongerFirst on the sequences. It depends only on content, never on
// IDs, so shard order — and everything downstream of it — is independent of
// the rank count.
func ContigLess(a, b Contig) bool { return seq.LongerFirst(a.Seq, b.Seq) }

// DistributeContigs builds the distributed contig set from the contigs each
// rank emitted, in one owner-routed exchange and with no gather anywhere:
// every contig goes to rank ContigOwner(c) mod P, where exact duplicates
// (always byte-identical, since contigs are emitted in canonical
// orientation) collide and are dropped after a local ContigLess sort. Each
// contig is then stamped with its owner-naming global ID
// (dist.Set.Renumber), with no collective. Placement is a function of
// content alone, so a rank's share of contig bytes is whatever the hash
// gives it. Collective.
//
// The last parameter is ignored: frozen benchmark/chain.go passes it (ROADMAP 2(b)).
func DistributeContigs(r *pgas.Rank, local []Contig, _ dist.Mode) *ContigSet {
	s := dist.New(r, local, ContigOwner, Contig.WireSize, dist.Distributed)
	s.SortLocal(r, ContigLess)
	s.DedupLocal(r, func(a, b Contig) bool { return string(a.Seq) == string(b.Seq) })
	s.Renumber(r, func(i, id int) { s.Local(r)[i].ID = id })
	return s
}

// RenumberContigs re-stamps the global IDs after a set's shards changed
// (filtering, compaction), storing the new ID into each contig. Collective.
func RenumberContigs(r *pgas.Rank, s *ContigSet) {
	s.Renumber(r, func(i, id int) { s.Local(r)[i].ID = id })
}

// PieceKmers is the most k-mers DealPieces puts in one piece. Smaller pieces
// spread a long contig over more ranks but ship k-1 more bases and a header
// per piece and re-walk k-1 bases at its start; larger ones leave the
// holder of a long contig more of its walk and its fan-out. Measured
// (benchmark sim_s, seed 1) at 64, 128, 256, 512 and 1024: wide_p4096
// 0.00781, 0.00748, 0.00741, 0.00762, 0.00816; mg18k_p16 0.024274,
// 0.024232, 0.024210, 0.024232, 0.024272. 256 is the least on both.
const PieceKmers = 256

// DealPieces cuts the calling rank's contigs into pieces of at most
// PieceKmers k-mers (seq.Piece) and deals them out round-robin, starting
// with the rank itself: piece j of rank p goes to rank (p+j) mod P. It
// returns the pieces the rank was dealt, in source-rank order. A contig
// shorter than k yields none; ambiguous bases stay in the pieces, so their
// k-mers are skipped by whoever walks them, as in the whole contig.
//
// A stage that cuts every k-mer of the set and routes it by the k-mer alone
// (the seed index, the k-mer merge) does the same work from the pieces as
// from the contigs, but no rank waits on the one that holds a long contig:
// each rank walks about its share of the set's k-mers. The deal is one
// exchange, charged at seq.Piece.WireSize per piece. Collective.
func DealPieces(r *pgas.Rank, cs *ContigSet, k int) []seq.Piece {
	var pieces []seq.Piece
	for _, c := range cs.Local(r) {
		n := len(c.Seq) - k + 1 // the contig's k-mers
		for off := 0; off < n; off += PieceKmers {
			end := min(off+PieceKmers, n) + k - 1
			pc := seq.Piece{ContigID: c.ID, Off: int32(off), Seq: c.Seq[off:end]}
			if off > 0 {
				pc.Left = c.Seq[off-1]
			}
			if end < len(c.Seq) {
				pc.Right = c.Seq[end]
			}
			pieces = append(pieces, pc)
		}
	}
	r.Compute(float64(len(pieces)))
	me := r.ID()
	dealt := pgas.ExchangeFunc(r, pieces, func(j int, _ seq.Piece) int { return me + j }, seq.Piece.WireSize)
	// The pieces are views of the dealing ranks' contigs: the receiver holds
	// them only while it walks them, as with dist.Exchange.
	received := 0
	for _, pc := range dealt {
		received += pc.WireSize()
	}
	r.ReleaseResident(received)
	return dealt
}
