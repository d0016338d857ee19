// Package dist implements distributed ownership of record collections — the
// counterpart of dht.Map for sequence-shaped data (contigs, alignments,
// extensions, scaffolds).
//
// A Set[T] partitions its items over the ranks of a virtual PGAS machine by
// an owner function. Items are shipped to their owners with one aggregated
// all-to-all exchange (the paper's §II-A use case 4, "Local Reads & Writes"),
// after which each rank holds and processes only its own shard: per-rank
// memory is O(N/P) instead of the O(N) a gather-to-all materializes on every
// rank. A global ID names its owner — ID(owner, index in the owner's shard) —
// so any rank maps an ID back to its owner with arithmetic (Locate), without
// a collective and without any O(P) table. Owner-side lookups by global ID
// are charged as one-sided gets (with an optional per-rank software cache in
// front), and final output is emitted rank by rank onto rank 0 only.
package dist

import (
	"sort"

	"mhmgo/internal/pgas"
)

// idxBits is the width of the shard-index half of a global ID.
const idxBits = 32

// ID returns the global ID of item idx of rank owner's shard: owner<<32 |
// idx. IDs order exactly as their (owner, idx) pairs order lexicographically
// — the rank-major order a dense renumbering would hand out — so comparing
// two IDs decides what comparing their dense ranks would. ID and Locate are
// the only code that knows the encoding.
func ID(owner, idx int) int { return owner<<idxBits | idx }

// Locate returns the rank owning the given global ID and the item's index
// within that rank's shard: the arithmetic inverse of ID.
func Locate(id int) (rank, idx int) { return id >> idxBits, id & (1<<idxBits - 1) }

// Mode has one value and no effect: frozen benchmark/ names it (ROADMAP 3(b)).
type Mode int

// Distributed is the only Mode, kept for the same frozen callers.
const Distributed Mode = 0

// Set is a collection of items partitioned over the ranks by an owner
// function. A Set is created collectively and shared by all ranks; each rank
// mutates only its own shard, and cross-shard reads go through Reader (or
// Emit), which charge the cost model. The zero value is not usable;
// construct with New.
type Set[T any] struct {
	wire func(T) int

	shards [][]T
}

// New creates a Set collectively: every rank contributes its local items,
// each item is routed to the rank ownerOf chooses (reduced modulo the rank
// count), and the calling rank's handle of the shared Set is returned. wire
// reports the wire bytes of one item for cost accounting. The routing is one
// aggregated all-to-all exchange and each rank's resident-bytes meter is
// charged only for its shard.
//
// The last parameter is ignored: frozen benchmark/probes.go passes it (ROADMAP 3(b)).
func New[T any](r *pgas.Rank, local []T, ownerOf func(T) int, wire func(T) int, _ Mode) *Set[T] {
	return NewIndexed(r, local, func(_, _ int, item T) int { return ownerOf(item) }, wire)
}

// NewIndexed creates a Set collectively like New, but the destination of an
// item is chosen by (source rank, local index, item) instead of item content
// alone. This supports placement rules that depend on an item's position in
// its source rank's (deterministically ordered) slice — e.g. striping a
// size-sorted shard round-robin over the ranks for byte balance.
func NewIndexed[T any](r *pgas.Rank, local []T, destOf func(src, i int, item T) int, wire func(T) int) *Set[T] {
	var s *Set[T]
	if r.ID() == 0 {
		s = &Set[T]{wire: wire, shards: make([][]T, r.NRanks())}
	}
	s = pgas.Broadcast(r, s)

	r.Compute(float64(len(local)))
	s.shards[r.ID()] = pgas.ExchangeFunc(r, local,
		func(i int, item T) int { return destOf(r.ID(), i, item) }, wire)
	r.Barrier()
	return s
}

// RestoreSet reconstructs a Set from checkpointed per-rank shards, outside
// any SPMD region and without charging the cost model: the simulated cost of
// routing the items and the shards' resident bytes were paid by the original
// run and are carried in the checkpointed rank clocks and resident meters.
// shards[p] becomes rank p's shard verbatim, preserving ownership at the
// same rank count. Every checkpointed set has been through Renumber, so item
// i of shard p should carry ID(p, i); callers should verify that if the
// shards come from an untrusted file.
func RestoreSet[T any](shards [][]T, wire func(T) int) *Set[T] {
	return &Set[T]{wire: wire, shards: shards}
}

// Local returns the calling rank's shard. The owner may mutate items in
// place between barriers; use SetLocal to keep the resident accounting
// exact when an item's wire size changes.
func (s *Set[T]) Local(r *pgas.Rank) []T { return s.shards[r.ID()] }

// Len returns the size of the calling rank's shard.
func (s *Set[T]) Len(r *pgas.Rank) int { return len(s.shards[r.ID()]) }

// GlobalLen returns the total number of items across all shards (an
// all-reduce).
func (s *Set[T]) GlobalLen(r *pgas.Rank) int {
	return pgas.AllReduce(r, len(s.shards[r.ID()]), pgas.ReduceSum)
}

// ForEachLocal calls fn for every item of the calling rank's shard, in shard
// order, with the item's local index.
func (s *Set[T]) ForEachLocal(r *pgas.Rank, fn func(i int, item T)) {
	for i, item := range s.shards[r.ID()] {
		fn(i, item)
	}
}

// SetLocal replaces item i of the calling rank's shard, adjusting the
// resident accounting by the wire-size difference.
func (s *Set[T]) SetLocal(r *pgas.Rank, i int, item T) {
	shard := s.shards[r.ID()]
	old, nw := s.wire(shard[i]), s.wire(item)
	if nw > old {
		r.ChargeResident(nw - old)
	} else {
		r.ReleaseResident(old - nw)
	}
	shard[i] = item
}

// SortLocal sorts the calling rank's shard with the given deterministic
// strict ordering.
func (s *Set[T]) SortLocal(r *pgas.Rank, less func(a, b T) bool) {
	shard := s.shards[r.ID()]
	sort.Slice(shard, func(i, j int) bool { return less(shard[i], shard[j]) })
	n := float64(len(shard))
	if n > 1 {
		r.Compute(n)
	}
}

// DedupLocal removes adjacent items for which equal reports true (sort
// first), releasing the dropped items' resident bytes, and returns how many
// items were removed. Items routed by a content hash collide on the same
// owner, so owner-local adjacent dedup is global dedup. Collective.
func (s *Set[T]) DedupLocal(r *pgas.Rank, equal func(a, b T) bool) int {
	shard := s.shards[r.ID()]
	dropped, droppedBytes := 0, 0
	if len(shard) > 0 {
		out := shard[:1]
		for _, item := range shard[1:] {
			if equal(out[len(out)-1], item) {
				droppedBytes += s.wire(item)
				dropped++
				continue
			}
			out = append(out, item)
		}
		s.shards[r.ID()] = out
		r.Compute(float64(len(shard)))
	}
	r.ReleaseResident(droppedBytes)
	return dropped
}

// FilterLocal keeps only the items of the calling rank's shard for which
// keep reports true, releasing the dropped items' resident bytes, and
// returns how many items were dropped. Collective.
func (s *Set[T]) FilterLocal(r *pgas.Rank, keep func(item T) bool) int {
	shard := s.shards[r.ID()]
	out := shard[:0]
	dropped, droppedBytes := 0, 0
	for _, item := range shard {
		if keep(item) {
			out = append(out, item)
		} else {
			droppedBytes += s.wire(item)
			dropped++
		}
	}
	s.shards[r.ID()] = out
	r.Compute(float64(len(shard)))
	r.ReleaseResident(droppedBytes)
	return dropped
}

// Renumber stamps every item of the calling rank's shard with its global ID,
// ID(rank, local index): assign is called for every local item with that
// index and ID (typically storing the ID into the item). No collective is
// needed — an ID is a function of the item's position — and the closing
// barrier makes every shard's new IDs visible before any rank reads them.
// Collective.
func (s *Set[T]) Renumber(r *pgas.Rank, assign func(i int, globalID int)) {
	n := len(s.shards[r.ID()])
	for i := 0; i < n; i++ {
		assign(i, ID(r.ID(), i))
	}
	r.Compute(float64(n))
	r.Barrier()
}

// Reader fetches items by global ID through a per-rank software cache, for
// read-only phases where the same remote items are fetched repeatedly (the
// paper's §II-A use case 3 applied to record collections). Requires Renumber.
type Reader[T any] struct {
	s       *Set[T]
	r       *pgas.Rank
	entries int
	cache   map[int]T
}

// NewReader creates a Reader with capacity for the given number of cached
// items (0 disables caching).
func (s *Set[T]) NewReader(r *pgas.Rank, entries int) *Reader[T] {
	rd := &Reader[T]{s: s, r: r, entries: entries}
	if entries > 0 {
		rd.cache = make(map[int]T)
	}
	return rd
}

// Get fetches the item with the given global ID through the cache. A local
// read costs one compute op and bypasses the cache; a remote miss is charged
// as a one-sided get of the item's wire size.
func (rd *Reader[T]) Get(id int) T {
	s, r := rd.s, rd.r
	owner, idx := Locate(id)
	item := s.shards[owner][idx]
	if owner == r.ID() {
		r.Compute(1)
		return item
	}
	if rd.cache != nil {
		if hit, ok := rd.cache[id]; ok {
			r.ChargeCacheHit()
			return hit
		}
	}
	r.ChargeCacheMiss(owner, s.wire(item))
	if rd.cache != nil && len(rd.cache) < rd.entries {
		rd.cache[id] = item
	}
	return item
}

// Emit delivers the full, rank-by-rank-ordered item list to rank 0 (the
// rank that writes final output) and returns nil on every other rank. Each
// rank is charged one aggregated send of its shard to rank 0, which consumes
// the shards one at a time — the modeled writer streams each arriving shard
// to the output file and drops it, so no rank ever holds the full payload
// and nothing is charged against the resident meter. (The returned in-memory
// slice is a convenience of the single-process harness, standing in for the
// output file.) Collective.
func (s *Set[T]) Emit(r *pgas.Rank) []T {
	r.Barrier()
	if r.ID() != 0 {
		if bytes := s.shardBytes(r.ID()); bytes > 0 {
			r.ChargeSend(0, bytes, 1)
		}
	}
	var out []T
	if r.ID() == 0 {
		n := 0
		for _, shard := range s.shards {
			n += len(shard)
		}
		// The senders paid the wire time; the writer accounts the
		// delivered bytes so sent and received totals stay balanced.
		received := 0
		for p := 1; p < len(s.shards); p++ {
			received += s.shardBytes(p)
		}
		r.AccountReceived(received)
		out = make([]T, 0, n)
		for _, shard := range s.shards {
			out = append(out, shard...)
		}
		r.Compute(float64(n))
	}
	r.Barrier()
	return out
}

// Release returns the local shard's resident bytes to the meter. Call it
// when the Set is replaced or consumed. Collective.
func (s *Set[T]) Release(r *pgas.Rank) {
	r.Barrier()
	r.ReleaseResident(s.shardBytes(r.ID()))
	r.Barrier()
}

func (s *Set[T]) shardBytes(p int) int {
	total := 0
	for _, item := range s.shards[p] {
		total += s.wire(item)
	}
	return total
}

// Exchange routes items to their owner ranks and returns the items the
// calling rank owns, without building a Set — the one-shot form used for
// transient record streams (removal proposals, extension results, link
// copies). It is one aggregated all-to-all charged by actual payload. The
// transient payload's resident charge is released before returning; only the
// returned slice remains with the caller.
func Exchange[T any](r *pgas.Rank, items []T, ownerOf func(T) int, wire func(T) int) []T {
	r.Compute(float64(len(items)))
	merged := pgas.ExchangeFunc(r, items,
		func(_ int, item T) int { return ownerOf(item) }, wire)
	received := 0
	for _, item := range merged {
		received += wire(item)
	}
	r.ReleaseResident(received)
	return merged
}
