// Package dht implements the distributed hash tables that are the backbone
// of every parallel algorithm in the assembler, mirroring Section II-A of
// the MetaHipMer paper.
//
// A Map partitions its entries over the ranks of a virtual PGAS machine by
// hashing each key to an owner rank (the key hash modulo the rank count).
// A rank's partition is one hash table behind one lock: the pipeline's hot
// table is written owner-locally after dist.Exchange, and its cross-rank
// writers flush aggregated batches to hash-uniform owners, so two running
// ranks rarely meet in one partition (DESIGN.md §4 has the traffic table).
//
// The package provides dedicated APIs for the four usage phases identified in
// the paper:
//
//   - Use case 1, "Global Update-Only": Updater aggregates fine-grained
//     commutative updates into per-destination batches, dramatically reducing
//     the number of messages (and the simulated communication cost). Each
//     flushed batch is applied under one acquisition of the destination's
//     partition lock.
//   - Use case 2, "Global Reads & Writes": Get/Delete perform one-sided
//     reads and removals of remote entries. The pipeline uses only the reads
//     (de Bruijn traversal's Get); it has no remote read-modify-write.
//   - Use case 3, "Global Read-Only": CachedReader adds a per-rank software
//     cache in front of Get for phases where the table is no longer mutated.
//     Freeze switches the whole map into a lock-free read-only phase: the
//     partition tables themselves are the immutable snapshot.
//   - Use case 4, "Local Reads & Writes": dist.Exchange ships items to their
//     owner rank with a single all-to-all exchange, and the owner applies
//     them to its own partition with UpdateLocal/SetLocal, purely locally.
package dht

import (
	"sync"
	"sync/atomic"

	"mhmgo/internal/hashtab"
	"mhmgo/internal/pgas"
)

// Map is a distributed hash table partitioned over the ranks of a machine.
// The zero value is not usable; construct with NewMap (from the coordinator,
// before Machine.Run) or NewMapCollective (from inside an SPMD region).
type Map[K comparable, V any] struct {
	machine    *pgas.Machine
	hash       func(K) uint64
	entryBytes int

	// parts holds one partition per rank. Its layout, and so every
	// iteration order, is a function of the rank count and the insertion
	// history only — never of the host.
	parts []partition[K, V]

	// frozen flips the whole map into the read-only phase: reads skip the
	// partition locks and mutations panic. The partition tables themselves
	// are the immutable snapshot — no data is copied.
	frozen atomic.Bool
}

// partition is one rank's share of a Map: a hashtab.Table probed with the
// hash that already chose the owner, behind the lock that serializes the
// one-sided accesses of other ranks. An empty partition holds no slots. The
// padding rounds a partition up to a cache line so neighbouring ranks' locks
// do not false-share.
type partition[K comparable, V any] struct {
	mu   sync.Mutex
	data hashtab.Table[K, V]
	_    [24]byte
}

// NewMap creates a distributed map on the given machine. hash must be a
// deterministic, well-mixed hash of the key; entryBytes is the approximate
// wire size of one entry, used by the communication cost model.
func NewMap[K comparable, V any](m *pgas.Machine, hash func(K) uint64, entryBytes int) *Map[K, V] {
	if entryBytes <= 0 {
		entryBytes = 16
	}
	return &Map[K, V]{
		machine:    m,
		hash:       hash,
		entryBytes: entryBytes,
		parts:      make([]partition[K, V], m.Ranks()),
	}
}

// NewMapCollective creates a distributed map from inside an SPMD region:
// rank 0 allocates the map and every rank receives the same instance.
func NewMapCollective[K comparable, V any](r *pgas.Rank, hash func(K) uint64, entryBytes int) *Map[K, V] {
	var dm *Map[K, V]
	if r.ID() == 0 {
		dm = NewMap[K, V](r.Machine(), hash, entryBytes)
	}
	return pgas.Broadcast(r, dm)
}

// Owner returns the rank that owns the given key.
func (m *Map[K, V]) Owner(key K) int { return m.ownerOf(m.hash(key)) }

// ownerOf returns the owner rank of a key hash. One hash evaluation serves
// owner selection and the table probe.
func (m *Map[K, V]) ownerOf(h uint64) int { return int(h % uint64(m.machine.Ranks())) }

// read reads key from its owner's partition: lock-free while the map is
// frozen (a table with no writer is safe to read concurrently, and mutators
// panic), under the partition lock otherwise.
func (m *Map[K, V]) read(owner int, h uint64, key K) (V, bool) {
	p := &m.parts[owner]
	if m.frozen.Load() {
		return p.data.Get(h, key)
	}
	p.mu.Lock()
	v, ok := p.data.Get(h, key)
	p.mu.Unlock()
	return v, ok
}

// scan calls f (if not nil) on every entry of rank's partition in slot order,
// holding the partition lock unless the map is frozen, and returns the entry
// count.
func (m *Map[K, V]) scan(rank int, f func(K, V)) int {
	p := &m.parts[rank]
	if !m.frozen.Load() {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	if f != nil {
		for k, v := range p.data.All() {
			f(k, v)
		}
	}
	return p.data.Len()
}

// Len returns the total number of entries across all partitions. It must not
// be called concurrently with updates.
func (m *Map[K, V]) Len() int {
	total := 0
	for rank := range m.parts {
		total += m.LocalLen(rank)
	}
	return total
}

// LocalLen returns the number of entries owned by the given rank.
func (m *Map[K, V]) LocalLen(rank int) int { return m.scan(rank, nil) }

// Get performs a one-sided read of the entry for key, charging the
// appropriate communication cost to the calling rank.
func (m *Map[K, V]) Get(r *pgas.Rank, key K) (V, bool) {
	h := m.hash(key)
	owner := m.ownerOf(h)
	if owner == r.ID() {
		r.Compute(1)
	} else {
		r.ChargeGet(owner, m.entryBytes, 1)
	}
	return m.read(owner, h, key)
}

// put stores an entry into rank's partition, charging nothing.
func (m *Map[K, V]) put(rank int, h uint64, key K, val V) {
	p := m.mutable(rank)
	p.mu.Lock()
	p.data.Put(h, key, val)
	p.mu.Unlock()
}

// Delete removes the entry for key, if present.
func (m *Map[K, V]) Delete(r *pgas.Rank, key K) {
	h := m.hash(key)
	owner := m.ownerOf(h)
	if owner == r.ID() {
		r.Compute(1)
	} else {
		r.ChargeSend(owner, 8, 1)
	}
	p := m.mutable(owner)
	p.mu.Lock()
	p.data.Delete(h, key)
	p.mu.Unlock()
}

// ForEachLocal iterates over the entries owned by the calling rank, in slot
// order. The callback runs under the partition lock (unless the map is
// frozen), so it must not call back into the same Map. One unit of compute
// is charged per entry.
func (m *Map[K, V]) ForEachLocal(r *pgas.Rank, f func(K, V)) {
	r.Compute(float64(m.scan(r.ID(), f)))
}

// UpdateLocal applies f to the entry for key, which must be owned by the
// calling rank (use case 4: local reads & writes after routing), with one
// probe under the partition lock. f gets a pointer to the stored value when
// the key is present and edits it in place; otherwise it gets a zero value,
// which is stored only if f returns true — so a caller can decline to admit a
// key (the k-mer analysis Bloom prefilter) without a separate lookup. One
// unit of compute is charged when an entry was updated or stored.
func (m *Map[K, V]) UpdateLocal(r *pgas.Rank, key K, f func(v *V, found bool) bool) {
	h := m.hash(key)
	p := m.mutable(r.ID())
	p.mu.Lock()
	stored := p.data.Update(h, key, f)
	p.mu.Unlock()
	if stored {
		r.Compute(1)
	}
}

// SetLocal stores a value into the calling rank's partition directly (the key
// must hash to this rank; this is not checked to keep the hot path cheap).
func (m *Map[K, V]) SetLocal(r *pgas.Rank, key K, val V) {
	m.put(r.ID(), m.hash(key), key, val)
	r.Compute(1)
}

// RangeLocal iterates over the entries owned by the given rank without
// charging the cost model, for coordinators and the checkpoint writer, which
// must observe the table without perturbing the simulated clocks. Iteration
// is in slot order, which depends on the insertion history; callers needing
// an order that does not must collect and sort. The callback must not call
// back into the same Map. Safe to call concurrently for distinct ranks; must
// not race with mutations of the same partition.
func (m *Map[K, V]) RangeLocal(rank int, f func(K, V)) { m.scan(rank, f) }

// Restore stores an entry directly into the given rank's partition without
// charging the cost model. It is the checkpoint-restore path: the simulated
// cost of building the table was paid by the original run and is carried in
// the restored rank clocks, so re-materializing the entries must be free.
// The key must hash to rank (not checked, mirroring SetLocal).
func (m *Map[K, V]) Restore(rank int, key K, val V) {
	m.put(rank, m.hash(key), key, val)
}

// Snapshot returns a copy of all entries in the map. It is intended for the
// end of a parallel phase (after a barrier) and for tests.
func (m *Map[K, V]) Snapshot() map[K]V {
	out := make(map[K]V, m.Len())
	for rank := range m.parts {
		m.scan(rank, func(k K, v V) { out[k] = v })
	}
	return out
}

// mutable returns rank's partition for writing, enforcing the read-only
// phase discipline: mutating a frozen map is a bug in the calling phase.
func (m *Map[K, V]) mutable(rank int) *partition[K, V] {
	if m.frozen.Load() {
		panic("dht: mutation of a frozen map")
	}
	return &m.parts[rank]
}

// Freeze atomically switches the map into the lock-free read-only phase (use
// case 3, "Global Read-Only"): all subsequent reads (Get, CachedReader.Get,
// ForEachLocal, Snapshot) skip the partition locks, and mutations panic.
// There is no way back: every table the pipeline freezes is read until it is
// dropped. The partition tables themselves serve as the immutable snapshot —
// nothing is copied, so freezing the pipeline's largest tables costs neither
// time nor memory.
//
// Freeze must not race with mutations: call it after the barrier that closes
// the last write phase. It is idempotent and safe to call from every rank.
func (m *Map[K, V]) Freeze() { m.frozen.Store(true) }
