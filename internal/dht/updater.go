package dht

import (
	"slices"

	"mhmgo/internal/pgas"
)

// kvPair is the unit buffered by an Updater. The key's hash is computed once
// at Update time (to find its owner) and kept, so that a flush probes the
// destination's table without re-hashing.
type kvPair[K comparable, V any] struct {
	key  K
	val  V
	hash uint64
}

// Updater implements the "Global Update-Only" phase: commutative updates are
// buffered per destination rank and applied in aggregated batches, each under
// one acquisition of the destination's partition lock instead of one per
// entry.
type Updater[K comparable, V any] struct {
	m       *Map[K, V]
	r       *pgas.Rank
	combine func(existing V, update V, found bool) V
	// batches buffers updates by destination rank. It is a map, not a
	// P-length slice: a P-slice per updater per rank is O(P²) machine-wide
	// (≈400 MB of slice headers alone at P=4096), while the map stays
	// proportional to the destinations this rank actually talks to between
	// flushes. Flush order is never derived from map iteration (Flush sorts
	// the destinations), so determinism is unaffected.
	batches   map[int][]kvPair[K, V]
	dests     []int // reusable Flush scratch: the destinations with buffered updates
	batchSize int
	aggregate bool
}

// NewUpdater creates an Updater for the calling rank. combine merges an
// incoming update into the existing entry (found reports whether an entry
// already existed). batchSize is the number of buffered updates per
// destination before an automatic flush; aggregate=false disables batching
// entirely (every update becomes its own message), which is used by the
// ablation experiments and the Ray Meta baseline.
func (m *Map[K, V]) NewUpdater(r *pgas.Rank, combine func(existing V, update V, found bool) V, batchSize int, aggregate bool) *Updater[K, V] {
	if batchSize <= 0 {
		batchSize = 512
	}
	return &Updater[K, V]{
		m:         m,
		r:         r,
		combine:   combine,
		batches:   make(map[int][]kvPair[K, V]),
		batchSize: batchSize,
		aggregate: aggregate,
	}
}

// Update buffers one commutative update for key.
func (u *Updater[K, V]) Update(key K, val V) {
	h := u.m.hash(key)
	dest := u.m.ownerOf(h)
	batch := append(u.batches[dest], kvPair[K, V]{key: key, val: val, hash: h})
	u.batches[dest] = batch
	if !u.aggregate || len(batch) >= u.batchSize {
		u.flushDest(dest)
	}
}

// Flush applies all buffered updates; it must be called before the phase's
// closing barrier. Only the destinations with buffered updates are visited,
// starting at the calling rank's own partition and wrapping around. When
// every rank flushes at the end of a phase simultaneously, a fixed 0..P-1
// order would march all ranks through partition 0's lock together (a lock
// convoy that serializes the wall-clock flush); staggering the start by rank
// ID spreads the flushes across all partitions. The updates are commutative,
// so the order does not affect the result.
func (u *Updater[K, V]) Flush() {
	p := u.m.machine.Ranks()
	start := u.r.ID()
	u.dests = u.dests[:0]
	for dest, batch := range u.batches {
		if len(batch) > 0 {
			u.dests = append(u.dests, (dest-start+p)%p)
		}
	}
	slices.Sort(u.dests)
	for _, off := range u.dests {
		u.flushDest((start + off) % p)
	}
}

// flushDest charges the batch buffered for dest as one aggregated message (or
// one message per update when aggregation is off) and folds it into dest's
// partition under one lock acquisition.
func (u *Updater[K, V]) flushDest(dest int) {
	batch := u.batches[dest]
	if len(batch) == 0 {
		return
	}
	u.batches[dest] = batch[:0]
	if dest == u.r.ID() {
		u.r.Compute(float64(len(batch)))
	} else if u.aggregate {
		u.r.ChargeSend(dest, len(batch)*u.m.entryBytes, 1)
	} else {
		u.r.ChargeSend(dest, len(batch)*u.m.entryBytes, len(batch))
	}
	part := u.m.mutable(dest)
	part.mu.Lock()
	for i := range batch {
		kv := &batch[i]
		part.data.Update(kv.hash, kv.key, func(v *V, found bool) bool {
			*v = u.combine(*v, kv.val, found)
			return true
		})
	}
	part.mu.Unlock()
}
