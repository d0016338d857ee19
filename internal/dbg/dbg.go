// Package dbg implements the de Bruijn graph construction and traversal
// stage of the pipeline (Section II-C of the paper).
//
// The graph is stored implicitly in a distributed hash table: each vertex is
// a canonical k-mer and its value is a two-letter extension code giving the
// unique base that precedes and follows it in the read set (or a fork /
// dead-end marker). Contigs are maximal paths of k-mers whose consecutive
// extensions agree in both directions ("UU contigs").
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
	"sort"
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

// Graph is the distributed de Bruijn graph. Every rank holds the same
// pointer; a Graph must not be copied.
type Graph struct {
	K       int
	Entries *dht.Map[seq.Kmer, Entry]

	// vertices memoizes Entries.Len() for Traverse's default step bound.
	// Len visits every partition, so P ranks each calling it is O(P²) host
	// work; the first rank to need it counts for all (the
	// table is complete, and not mutated, by the time a traversal starts).
	vertices     int
	verticesOnce sync.Once
}

// vertexCount returns the number of vertices as of the first traversal.
func (g *Graph) vertexCount() int {
	g.verticesOnce.Do(func() { g.vertices = g.Entries.Len() })
	return g.vertices
}

// NewGraph creates an empty graph for k-mers of length k.
func NewGraph(m *pgas.Machine, k int) *Graph {
	return &Graph{K: k, Entries: dht.NewMap[seq.Kmer, Entry](m, seq.Kmer.Hash, 24)}
}

// Build classifies the k-mer counts into graph entries. It is collective:
// each rank classifies the counts it owns (the entries land on the same
// owner, so the phase is purely local). Returns the same graph on all ranks,
// frozen: traversal only reads it.
func Build(r *pgas.Rank, counts *dht.Map[seq.Kmer, seq.KmerCount], k int, topts ThresholdOptions) *Graph {
	var g *Graph
	if r.ID() == 0 {
		g = NewGraph(r.Machine(), k)
	}
	g = pgas.Broadcast(r, g)
	if topts.MinCount == 0 {
		topts.MinCount = 1
	}
	counts.ForEachLocal(r, func(km seq.Kmer, kc seq.KmerCount) {
		thq := topts.THQFor(kc.Count)
		e := Entry{Count: kc.Count}
		e.Ext.Left = kc.Left.Classify(topts.MinCount, thq)
		e.Ext.Right = kc.Right.Classify(topts.MinCount, thq)
		g.Entries.SetLocal(r, km, e)
	})
	r.Barrier()
	g.Entries.Freeze()
	return g
}

// oriented is a k-mer as observed during a walk: the canonical key plus the
// strand we are reading it on (true = canonical orientation).
type oriented struct {
	key     seq.Kmer
	forward bool
}

// observedKmer returns the k-mer as read on the walk's strand.
func (o oriented) observedKmer() seq.Kmer {
	if o.forward {
		return o.key
	}
	return o.key.ReverseComplement()
}

// observedExt returns the extension pair as seen on the walk's strand.
func observedExt(e Entry, forward bool) seq.ExtPair {
	if forward {
		return e.Ext
	}
	return e.Ext.Swap()
}

// lookup fetches the entry of the canonical form of km with one Get,
// returning the oriented view and whether it exists. A palindrome resolves
// to its forward orientation.
func (g *Graph) lookup(r *pgas.Rank, km seq.Kmer) (oriented, Entry, bool) {
	canon, wasRC := km.Canonical()
	e, ok := g.Entries.Get(r, canon)
	return oriented{key: canon, forward: !wasRC}, e, ok
}

// successor returns the next oriented k-mer of a walk, or ok=false if the
// walk must stop (no extension, fork, missing vertex, or mutual-agreement
// failure).
func (g *Graph) successor(r *pgas.Rank, cur oriented, e Entry) (oriented, Entry, byte, bool) {
	ext := observedExt(e, cur.forward)
	if !seq.IsBaseExt(ext.Right) {
		return oriented{}, Entry{}, 0, false
	}
	code, _ := seq.CharToBase(ext.Right)
	obs := cur.observedKmer()
	nextObs := obs.AppendBase(code)
	next, ne, ok := g.lookup(r, nextObs)
	if !ok {
		return oriented{}, Entry{}, 0, false
	}
	// Mutual agreement: the successor's left extension must point back at
	// the first base of the current observed k-mer.
	nextExt := observedExt(ne, next.forward)
	if !seq.IsBaseExt(nextExt.Left) {
		return oriented{}, Entry{}, 0, false
	}
	backCode, _ := seq.CharToBase(nextExt.Left)
	if backCode != obs.FirstBase() {
		return oriented{}, Entry{}, 0, false
	}
	return next, ne, code, true
}

// vertex is one locally owned vertex during a traversal. pred records which
// orientations have an agreeing predecessor (bit 0 read forward, bit 1 read
// reverse); such an orientation is not a path start.
type vertex struct {
	km   seq.Kmer
	e    Entry
	pred uint8
}

// claim is one vertex orientation's message to its successor: "I precede
// you". It names the successor by its canonical key and by the orientations
// of that key that read as the observed successor (bit 0 forward, bit 1
// reverse; both for a palindrome), and carries the claimant's first observed
// base in bits 2-3.
type claim struct {
	key  seq.Kmer
	bits uint8
}

// claimWireSize is the wire bytes of one claim: the packed k-mer (two words
// plus k) and the bits byte.
const claimWireSize = 18

// newClaim returns the claim of the vertex read as obs whose observed right
// extension is the base code.
func newClaim(obs seq.Kmer, code byte) claim {
	next := obs.AppendBase(code)
	key, orients := next, uint8(1)
	if rc := next.ReverseComplement(); rc.Less(next) {
		key, orients = rc, 2
	} else if rc == next {
		orients = 3 // a palindrome reads as itself both ways
	}
	return claim{key: key, bits: obs.FirstBase()<<2 | orients}
}

// sortedLocalVertices returns the vertices the calling rank owns, in sorted
// k-mer order (seq.Kmer.Less). The order is an LSD radix sort over the 2k
// key bits, one byte per pass: stable, O(passes · vertices), and without the
// indirect comparator calls that made a comparison sort a third of the
// traversal's host time.
func (g *Graph) sortedLocalVertices(r *pgas.Rank) []vertex {
	local := make([]vertex, 0, g.Entries.LocalLen(r.ID()))
	g.Entries.ForEachLocal(r, func(km seq.Kmer, e Entry) {
		local = append(local, vertex{km: km, e: e})
	})
	tmp := make([]vertex, len(local))
	for shift := uint(0); shift < 2*uint(g.K); shift += 8 {
		var next [256]int
		for i := range local {
			next[keyByte(local[i].km, shift)]++
		}
		pos := 0
		for b, n := range next {
			next[b] = pos
			pos += n
		}
		for i := range local {
			d := keyByte(local[i].km, shift)
			tmp[next[d]] = local[i]
			next[d]++
		}
		local, tmp = tmp, local
	}
	return local
}

// keyByte returns the byte of km's 128-bit packed value at bit shift (a
// multiple of 8, so the byte never straddles the two words).
func keyByte(km seq.Kmer, shift uint) byte {
	if shift >= 64 {
		return byte(km.Hi >> (shift - 64))
	}
	return byte(km.Lo >> shift)
}

// markPredecessors sets the pred bits of the calling rank's vertices with one
// claim exchange instead of one Get per vertex orientation. Every vertex
// orientation whose observed right extension is a base c claims its
// successor obs[1:]+c, carrying its own first base b; the claim goes to the
// successor's owner. An orientation whose observed left extension is the base
// b has an agreeing predecessor exactly when it received a claim carrying b:
// the predecessor exists (it sent the claim) and its right extension points
// back here (that is what it claimed). A palindromic vertex (even k only)
// reads as itself both ways, and lookup resolves it to its forward
// orientation, so it claims only from there. Collective.
func (g *Graph) markPredecessors(r *pgas.Rank, local []vertex) {
	claims := make([]claim, 0, 2*len(local))
	for _, v := range local {
		if code, ok := seq.CharToBase(v.e.Ext.Right); ok {
			claims = append(claims, newClaim(v.km, code))
		}
		if code, ok := seq.CharToBase(v.e.Ext.Left); ok {
			if rc := v.km.ReverseComplement(); rc != v.km {
				claims = append(claims, newClaim(rc, seq.ComplementCode(code)))
			}
		}
	}
	r.Compute(float64(len(claims)))
	received := pgas.ExchangeFunc(r, claims,
		func(_ int, c claim) int { return g.Entries.Owner(c.key) },
		func(claim) int { return claimWireSize })
	// Resolving a claim is one owner-local probe, the charge of the local
	// Get it replaces.
	r.Compute(float64(len(received)))
	index := newVertexIndex(local)
	for _, c := range received {
		i := index.find(local, c.key)
		if i < 0 {
			continue
		}
		v := &local[i]
		b := c.bits >> 2
		if c.bits&1 != 0 && leftBaseIs(v.e.Ext, b) {
			v.pred |= 1
		}
		if c.bits&2 != 0 && leftBaseIs(v.e.Ext.Swap(), b) {
			v.pred |= 2
		}
	}
	r.ReleaseResident(len(received) * claimWireSize)
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

// home is km's first slot: the top bits of its hash times φ64, since the low
// bits of the hash are the owner's, the same for every key of a rank.
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

// TraverseOptions controls contig generation.
type TraverseOptions struct {
	// MinContigLen drops contigs shorter than this many bases (0 keeps all).
	MinContigLen int
}

// Traverse generates contigs from the graph. Collective: every rank walks
// the paths that start at k-mers it owns and returns only the contigs it
// emitted; use DistributeContigs to build the owner-distributed set. Contigs
// are emitted in canonical orientation exactly once.
//
// Path starts come from one claim exchange (markPredecessors): every vertex
// orientation with a base right extension tells its successor's owner, in
// one aggregated message per destination, so a rank learns which of its
// vertex orientations have an agreeing predecessor without a remote probe.
// Only the walks read the graph one Get at a time.
//
// Claims are generated, and walks start, in sorted k-mer order, not
// map-iteration order: each walk charges a different amount of simulated
// work, and folding the same charges into the clock in a run-to-run-varying
// order would drift the simulated seconds by floating-point rounding.
func Traverse(r *pgas.Rank, g *Graph, opts TraverseOptions) []Contig {
	// No simple path visits more vertices than the graph has: the bound
	// stops a walk that entered a cycle not through its start vertex.
	maxSteps := g.vertexCount() + 1
	local := g.sortedLocalVertices(r)
	g.markPredecessors(r, local)
	var out []Contig
	ws := &walkScratch{}
	for _, v := range local {
		for o, forward := range []bool{true, false} {
			if v.pred&(1<<o) != 0 {
				continue
			}
			g.walk(r, oriented{key: v.km, forward: forward}, v.e, maxSteps, ws)
			n := ws.seq.Len()
			if n < g.K || (opts.MinContigLen > 0 && n < opts.MinContigLen) {
				continue
			}
			// Emit each path once: only from the end whose sequence is the
			// canonical orientation (ties broken towards emitting). The
			// comparison runs on the packed form; ASCII is materialized only
			// for the paths that survive it.
			if ws.seq.GreaterThanRC() {
				continue
			}
			contigSeq := ws.seq.AppendUnpack(make([]byte, 0, n))
			out = append(out, Contig{Seq: contigSeq, Depth: seq.MeanDepthFromCounts(ws.counts)})
		}
	}
	r.Barrier()
	return out
}

// walkScratch holds the reusable walk buffers: the packed path sequence and
// the per-vertex depth counts. One scratch serves a whole Traverse — a walk
// appends 2-bit codes into it and unpacks to ASCII only for the paths that
// are actually emitted, so walking is allocation-free in steady state (the
// walked-from-both-ends and too-short paths that used to build and discard a
// byte slice each now cost nothing).
type walkScratch struct {
	seq    seq.Packed
	counts []uint32
}

// walk extends a path from the starting oriented k-mer until it hits a fork,
// dead end, missing vertex or the step bound, filling the scratch buffers.
func (g *Graph) walk(r *pgas.Rank, start oriented, e Entry, maxSteps int, ws *walkScratch) {
	ws.seq.Reset()
	ws.counts = ws.counts[:0]
	obs := start.observedKmer()
	ws.seq.AppendKmer(obs)
	ws.counts = append(ws.counts, e.Count)
	cur, ce := start, e
	for steps := 0; steps < maxSteps; steps++ {
		next, ne, code, ok := g.successor(r, cur, ce)
		if !ok {
			break
		}
		if next.key == start.key {
			// Cycle closed; stop without repeating the start.
			break
		}
		ws.seq.AppendCode(code)
		ws.counts = append(ws.counts, ne.Count)
		cur, ce = next, ne
		r.Compute(1)
	}
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

// ContigLess is the deterministic contig ordering used within each shard
// (descending length, then sequence). It depends only on content, never on
// IDs, so shard order — and everything downstream of it — is independent of
// the rank count.
func ContigLess(a, b Contig) bool {
	if len(a.Seq) != len(b.Seq) {
		return len(a.Seq) > len(b.Seq)
	}
	return string(a.Seq) < string(b.Seq)
}

// DistributeContigs builds the distributed contig set from the contigs each
// rank emitted, in two owner-routed exchanges and with no gather anywhere:
//
//  1. Contigs are routed to their content-hash owner, where exact duplicates
//     (always byte-identical, since contigs are emitted in canonical
//     orientation) collide and are deduplicated after a local sort.
//  2. The deduplicated shards — already size-sorted — are striped round-robin
//     over the ranks by local size rank, so every rank ends up owning an
//     even cross-section of large and small contigs, so every rank holds a
//     like share of the contig bytes that alignment indexes and local
//     assembly and scaffolding work on.
//
// The final shards are sorted and every contig is stamped with its owner-
// naming global ID (dist.Set.Renumber), with no collective. This replaces the
// old gather-to-all + sort-the-world-on-every-rank GatherContigs. Collective.
//
// The last parameter is ignored: frozen benchmark/chain.go passes it (ROADMAP 3(b)).
func DistributeContigs(r *pgas.Rank, local []Contig, _ dist.Mode) *ContigSet {
	home := dist.New(r, local, ContigOwner, Contig.WireSize, dist.Distributed)
	home.SortLocal(r, ContigLess)
	home.DedupLocal(r, func(a, b Contig) bool { return string(a.Seq) == string(b.Seq) })
	deduped := append([]Contig(nil), home.Local(r)...)
	home.Release(r)
	s := dist.NewIndexed(r, deduped,
		func(src, i int, _ Contig) int { return i + src },
		Contig.WireSize)
	s.SortLocal(r, ContigLess)
	s.Renumber(r, func(i, id int) { s.Local(r)[i].ID = id })
	return s
}

// RenumberContigs re-stamps the global IDs after a set's shards changed
// (filtering, compaction), storing the new ID into each contig. Collective.
func RenumberContigs(r *pgas.Rank, s *ContigSet) {
	s.Renumber(r, func(i, id int) { s.Local(r)[i].ID = id })
}

// Stats summarizes a contig set.
type Stats struct {
	Count      int
	TotalBases int
	MaxLen     int
	N50        int
}

// ComputeStats returns summary statistics of a contig set.
func ComputeStats(contigs []Contig) Stats {
	var s Stats
	s.Count = len(contigs)
	lengths := make([]int, 0, len(contigs))
	for _, c := range contigs {
		s.TotalBases += c.Len()
		if c.Len() > s.MaxLen {
			s.MaxLen = c.Len()
		}
		lengths = append(lengths, c.Len())
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lengths)))
	half := s.TotalBases / 2
	acc := 0
	for _, l := range lengths {
		acc += l
		if acc >= half {
			s.N50 = l
			break
		}
	}
	return s
}

// String renders the stats in a single line.
func (s Stats) String() string {
	return fmt.Sprintf("contigs=%d bases=%d max=%d N50=%d", s.Count, s.TotalBases, s.MaxLen, s.N50)
}
