// Package dht implements the distributed hash tables that are the backbone
// of every parallel algorithm in the assembler, mirroring Section II-A of
// the MetaHipMer paper.
//
// A Map partitions its entries over the ranks of a virtual PGAS machine by
// hashing each key to an owner rank: the key hash modulo the rank count, or,
// for a map built with NewMapOwnedBy, a separate owner hash modulo the rank
// count (the k-mer counts and the aligner's seed index own a k-mer by its
// minimizer and probe by its hash).
// A rank's partition is one hash table with one writer, its owner: every
// update reaches the owner by an owner-routed exchange and the owner applies
// it, so a partition needs no lock, and a table's contents and iteration
// order are a function of the rank count and the input alone (DESIGN.md §4
// has the traffic table). Another rank may read a partition only once the
// map is frozen; before that, such a read panics.
//
// The package provides dedicated APIs for the four usage phases identified in
// the paper:
//
//   - Use case 1, "Global Update-Only": Updater buffers fine-grained
//     commutative updates, and its collective Flush ships them to their
//     owners in one aggregated exchange, dramatically reducing the number of
//     messages (and the simulated communication cost). Each owner folds what
//     it received into its own partition, in source-rank order.
//   - Use case 2, "Global Reads & Writes": Get performs one-sided reads of
//     remote entries once the map is frozen. The pipeline has no remote
//     write and no remote read-modify-write: writes are use cases 1 and 4.
//   - Use case 3, "Global Read-Only": Freeze ends the write phases for good
//     (mutations panic, and the partition tables themselves are the
//     immutable snapshot), and Get then reads any partition.
//   - Use case 4, "Local Reads & Writes": dist.Exchange ships items to their
//     owner rank with a single all-to-all exchange, and the owner applies
//     them to its own partition with UpdateLocal/DeleteLocal, purely
//     locally.
package dht

import (
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
	// ownerHash, when set, chooses a key's owner (ownerHash % P) in place
	// of hash; the partitions are still probed with hash.
	ownerHash func(K) uint64

	// parts holds one partition per rank: a hashtab.Table probed with hash
	// (which also chose the owner, unless ownerHash did), written only by
	// its owner. An empty partition holds no slots. Its layout, and so every
	// iteration order, is a function of the rank count and the insertion
	// history only — never of the host.
	parts []hashtab.Table[K, V]

	// frozen flips the whole map into the read-only phase: every rank may
	// read every partition, and mutations panic. The partition tables
	// themselves are the immutable snapshot — no data is copied.
	frozen atomic.Bool
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
		parts:      make([]hashtab.Table[K, V], m.Ranks()),
	}
}

// NewMapOwnedBy creates a distributed map whose keys are owned by
// ownerHash(key) modulo the rank count and probed with hash. Only Owner, Get
// and Updater.Update evaluate ownerHash. The owner-local calls (GetLocal,
// UpdateLocal, DeleteLocal, Restore) probe with hash alone, and
// Updater.UpdateWithOwnerHash takes the owner hash from the caller, so a
// costly owner rule is paid at most once per routed key, and not at all by a
// caller that derives it more cheaply (a rolling minimizer window).
func NewMapOwnedBy[K comparable, V any](m *pgas.Machine, hash, ownerHash func(K) uint64, entryBytes int) *Map[K, V] {
	dm := NewMap[K, V](m, hash, entryBytes)
	dm.ownerHash = ownerHash
	return dm
}

// NewMapCollective creates a distributed map from inside an SPMD region:
// the map is allocated once (pgas.Shared) and every rank receives the same
// instance.
func NewMapCollective[K comparable, V any](r *pgas.Rank, hash func(K) uint64, entryBytes int) *Map[K, V] {
	return pgas.Shared(r, func() *Map[K, V] { return NewMap[K, V](r.Machine(), hash, entryBytes) })
}

// Owner returns the rank that owns the given key.
func (m *Map[K, V]) Owner(key K) int {
	if m.ownerHash != nil {
		return m.OwnerOfHash(m.ownerHash(key))
	}
	return m.OwnerOfHash(m.hash(key))
}

// OwnerOfHash returns the rank that owns the keys whose owner hash is h: the
// key hash, or ownerHash's value for a map built with NewMapOwnedBy. A caller
// that already holds the owner hash of a batch of keys (k-mer analysis
// routes a supermer by its minimizer) routes it without re-evaluating it.
func (m *Map[K, V]) OwnerOfHash(h uint64) int { return int(h % uint64(m.machine.Ranks())) }

// place returns key's owner and its probe hash. Without an owner hash, one
// hash evaluation serves owner selection and the table probe.
func (m *Map[K, V]) place(key K) (owner int, h uint64) {
	h = m.hash(key)
	if m.ownerHash != nil {
		return m.OwnerOfHash(m.ownerHash(key)), h
	}
	return m.OwnerOfHash(h), h
}

// read reads key from owner's partition on behalf of rank r. A rank may read
// its own partition at any time, another rank's only once the map is frozen:
// until then that partition's owner may be writing it.
func (m *Map[K, V]) read(r *pgas.Rank, owner int, h uint64, key K) (V, bool) {
	if owner != r.ID() && !m.frozen.Load() {
		panic("dht: read of another rank's partition of a map that is not frozen")
	}
	return m.parts[owner].Get(h, key)
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
func (m *Map[K, V]) LocalLen(rank int) int { return m.parts[rank].Len() }

// Get performs a one-sided read of the entry for key, charging the
// appropriate communication cost to the calling rank. A key another rank
// owns may only be read once the map is frozen.
func (m *Map[K, V]) Get(r *pgas.Rank, key K) (V, bool) {
	owner, h := m.place(key)
	if owner == r.ID() {
		r.Compute(1)
	} else {
		r.ChargeGet(owner, m.entryBytes, 1)
	}
	return m.read(r, owner, h, key)
}

// GetLocal reads the entry for key, which must be owned by the calling rank,
// from its own partition, probing with hash alone, and charges one unit of
// compute, as Get does for a key the caller owns. The partition's owner may
// read it at any time, frozen or not.
func (m *Map[K, V]) GetLocal(r *pgas.Rank, key K) (V, bool) {
	r.Compute(1)
	return m.parts[r.ID()].Get(m.hash(key), key)
}

// DeleteLocal removes the entry for key, which must be owned by the calling
// rank, if present.
func (m *Map[K, V]) DeleteLocal(r *pgas.Rank, key K) {
	m.mutable(r.ID()).Delete(m.hash(key), key)
	r.Compute(1)
}

// ForEachLocal iterates over the entries owned by the calling rank, in slot
// order. The callback must not mutate the same Map. One unit of compute is
// charged per entry.
func (m *Map[K, V]) ForEachLocal(r *pgas.Rank, f func(K, V)) {
	m.RangeLocal(r.ID(), f)
	r.Compute(float64(m.LocalLen(r.ID())))
}

// UpdateLocal applies f to the entry for key, which must be owned by the
// calling rank (use case 4: local reads & writes after routing), with one
// probe. f gets a pointer to the stored value when the key is present and
// edits it in place; otherwise it gets a zero value, which is stored only if
// f returns true — so a caller can decline to admit a key (the k-mer analysis
// Bloom prefilter) without a separate lookup. One unit of compute is charged
// when an entry was updated or stored.
func (m *Map[K, V]) UpdateLocal(r *pgas.Rank, key K, f func(v *V, found bool) bool) {
	if m.mutable(r.ID()).Update(m.hash(key), key, f) {
		r.Compute(1)
	}
}

// RangeLocal iterates over the entries owned by the given rank without
// charging the cost model, for coordinators and the checkpoint writer, which
// must observe the table without perturbing the simulated clocks. Iteration
// is in slot order, which depends on the insertion history; callers needing
// an order that does not must collect and sort. The callback must not mutate
// the same Map. Safe to call concurrently for distinct ranks; must not race
// with mutations of the same partition.
func (m *Map[K, V]) RangeLocal(rank int, f func(K, V)) {
	for k, v := range m.parts[rank].All() {
		f(k, v)
	}
}

// Restore stores an entry directly into the given rank's partition without
// charging the cost model. It is the checkpoint-restore path: the simulated
// cost of building the table was paid by the original run and is carried in
// the restored rank clocks, so re-materializing the entries must be free.
// The key must be owned by rank (not checked), and the call must come from
// the coordinator or from rank itself.
func (m *Map[K, V]) Restore(rank int, key K, val V) {
	m.mutable(rank).Put(m.hash(key), key, val)
}

// Snapshot returns a copy of all entries in the map. It is intended for the
// end of a parallel phase (after a barrier) and for tests.
func (m *Map[K, V]) Snapshot() map[K]V {
	out := make(map[K]V, m.Len())
	for rank := range m.parts {
		m.RangeLocal(rank, func(k K, v V) { out[k] = v })
	}
	return out
}

// mutable returns rank's partition for writing, enforcing the read-only
// phase discipline: mutating a frozen map is a bug in the calling phase.
func (m *Map[K, V]) mutable(rank int) *hashtab.Table[K, V] {
	if m.frozen.Load() {
		panic("dht: mutation of a frozen map")
	}
	return &m.parts[rank]
}

// Freeze atomically switches the map into the read-only phase (use case 3,
// "Global Read-Only"): from then on every rank may read every partition with
// Get, and mutations panic. There is no way back: every table the pipeline
// freezes is read until it is dropped. The partition tables themselves serve
// as the immutable snapshot — nothing is copied, so freezing the pipeline's
// largest tables costs neither time nor memory.
//
// Freeze must not race with mutations: call it after the barrier that closes
// the last write phase. It is idempotent and safe to call from every rank.
func (m *Map[K, V]) Freeze() { m.frozen.Store(true) }
