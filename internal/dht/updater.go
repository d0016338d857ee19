package dht

import "mhmgo/internal/pgas"

// kvPair is the unit buffered by an Updater. The key's hash is computed once
// at Update time (to find its owner) and kept, so that a flush can group a
// batch by stripe and probe the stripe tables without re-hashing.
type kvPair[K comparable, V any] struct {
	key  K
	val  V
	hash uint64
}

// Updater implements the "Global Update-Only" phase: commutative updates are
// buffered per destination rank and applied in aggregated batches. When a
// batch is flushed it is grouped by stripe, so each stripe lock of the
// destination partition is taken at most once per flush instead of once per
// entry.
type Updater[K comparable, V any] struct {
	m       *Map[K, V]
	r       *pgas.Rank
	combine func(existing V, update V, found bool) V
	// batches buffers updates by destination rank. It is a map, not a
	// P-length slice: a P-slice per updater per rank is O(P²) machine-wide
	// (≈400 MB of slice headers alone at P=4096), while the map stays
	// proportional to the destinations this rank actually talks to between
	// flushes. Flush order is never derived from map iteration (Flush walks
	// rank IDs), so determinism is unaffected.
	batches   map[int][]kvPair[K, V]
	byStripe  [][]kvPair[K, V] // reusable flush scratch, indexed by stripe
	touched   []uint32         // stripes used by the current flush
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
		byStripe:  make([][]kvPair[K, V], m.stripeCount),
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
// closing barrier. Destinations are flushed starting at the calling rank's
// own partition and wrapping around. When every rank flushes at the end of a
// phase simultaneously, a fixed 0..P-1 order would march all ranks through
// partition 0's stripe locks together (a lock convoy that serializes the
// wall-clock flush); staggering the start by rank ID spreads the flushes
// across all partitions. The updates are commutative, so the order does not
// affect the result.
func (u *Updater[K, V]) Flush() {
	p := u.m.machine.Ranks()
	start := u.r.ID()
	for i := 0; i < p; i++ {
		u.flushDest((start + i) % p)
	}
}

func (u *Updater[K, V]) flushDest(dest int) {
	batch := u.batches[dest]
	if len(batch) == 0 {
		return
	}
	u.batches[dest] = u.batches[dest][:0]
	if dest == u.r.ID() {
		u.r.Compute(float64(len(batch)))
	} else if u.aggregate {
		u.r.ChargeSend(dest, len(batch)*u.m.entryBytes, 1)
	} else {
		u.r.ChargeSend(dest, len(batch)*u.m.entryBytes, len(batch))
	}

	if u.m.stripeCount == 1 || len(batch) == 1 {
		// One stripe, or (common with aggregate=false, where every update is
		// its own flush) one update: skip the grouping pass.
		u.applyStripe(dest, batch)
		return
	}
	// Group the batch by stripe so each lock is taken once per flush. Only
	// the stripes this batch touches are visited and reset, keeping the
	// bookkeeping proportional to the batch, not the stripe count.
	u.touched = u.touched[:0]
	for _, kv := range batch {
		si := uint32(kv.hash >> u.m.stripeShift)
		if len(u.byStripe[si]) == 0 {
			u.touched = append(u.touched, si)
		}
		u.byStripe[si] = append(u.byStripe[si], kv)
	}
	for _, si := range u.touched {
		u.applyStripe(dest, u.byStripe[si])
		u.byStripe[si] = u.byStripe[si][:0]
	}
}

// applyStripe folds kvs, which all hash to one stripe of dest's partition,
// into that stripe under one lock acquisition.
func (u *Updater[K, V]) applyStripe(dest int, kvs []kvPair[K, V]) {
	s := u.m.mutableStripe(dest, kvs[0].hash)
	s.mu.Lock()
	for i := range kvs {
		kv := &kvs[i]
		s.data.Update(kv.hash, kv.key, func(v *V, found bool) bool {
			*v = u.combine(*v, kv.val, found)
			return true
		})
	}
	s.mu.Unlock()
}
