// Package dht implements the distributed hash tables that are the backbone
// of every parallel algorithm in the assembler, mirroring Section II-A of
// the MetaHipMer paper.
//
// A Map partitions its entries over the ranks of a virtual PGAS machine by
// hashing each key to an owner rank. Within a rank's partition, entries are
// further divided into a power-of-two number of independently locked
// *stripes*, so that concurrent accesses to the same owner rank only contend
// when they hit the same stripe. Owner selection uses the low bits of the key
// hash (modulo the rank count) and stripe selection uses the high bits, so
// the two are independent for any well-mixed hash.
//
// The package provides dedicated APIs for the four usage phases identified in
// the paper:
//
//   - Use case 1, "Global Update-Only": Updater aggregates fine-grained
//     commutative updates into per-destination batches, dramatically reducing
//     the number of messages (and the simulated communication cost). Each
//     flushed batch is grouped by stripe so every stripe lock is taken at
//     most once per flush.
//   - Use case 2, "Global Reads & Writes": Get/Put/Delete perform one-sided
//     reads and writes of remote entries. The pipeline uses only the reads
//     (de Bruijn traversal's Get); it has no remote read-modify-write.
//   - Use case 3, "Global Read-Only": CachedReader adds a per-rank software
//     cache in front of Get for phases where the table is no longer mutated.
//     Freeze switches the whole map into a lock-free read-only phase backed
//     by an immutable per-partition snapshot.
//   - Use case 4, "Local Reads & Writes": Route ships items to their owner
//     rank with a single all-to-all exchange so the owner can process them in
//     a purely local hash table.
package dht

import (
	"math/bits"
	"runtime"
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

	// stripeShift maps the high bits of a key hash to a stripe index:
	// stripe = hash >> stripeShift. With stripeCount a power of two this
	// selects the top log2(stripeCount) bits, which are independent of the
	// low bits used for owner-rank selection.
	stripeShift uint
	stripeCount int

	// stripes holds every rank's partition in one rank-major array: rank i
	// owns stripes[i*stripeCount : (i+1)*stripeCount].
	stripes []stripe[K, V]

	// frozen flips the whole map into the read-only phase: reads skip the
	// stripe locks and mutations panic. The stripe tables themselves are the
	// immutable snapshot — no data is copied.
	frozen atomic.Bool
}

// stripe is one lock's worth of a partition: a hashtab.Table probed with the
// hash that already chose the owner and the stripe. An empty stripe holds no
// slots. The padding rounds a stripe up to a cache line so hot stripe locks
// do not false-share and striping actually removes contention.
type stripe[K comparable, V any] struct {
	mu   sync.Mutex
	data hashtab.Table[K, V]
	_    [24]byte
}

// DefaultStripes returns the default stripe count per partition:
// max(8, GOMAXPROCS) rounded up to a power of two, so that on any machine the
// goroutines of all ranks can simultaneously hold distinct stripe locks of a
// single hot partition.
func DefaultStripes() int {
	n := runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return ceilPow2(n)
}

func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// NewMap creates a distributed map on the given machine. hash must be a
// deterministic, well-mixed hash of the key; entryBytes is the approximate
// wire size of one entry, used by the communication cost model. Every
// partition gets DefaultStripes lock stripes.
func NewMap[K comparable, V any](m *pgas.Machine, hash func(K) uint64, entryBytes int) *Map[K, V] {
	return newMapStripes[K, V](m, hash, entryBytes, DefaultStripes())
}

// newMapStripes is NewMap with an explicit stripe count per partition,
// rounded up to a power of two; tests vary it, down to the one-lock-per-rank
// layout of stripe count 1.
func newMapStripes[K comparable, V any](m *pgas.Machine, hash func(K) uint64, entryBytes, stripes int) *Map[K, V] {
	if entryBytes <= 0 {
		entryBytes = 16
	}
	stripes = ceilPow2(stripes)
	dm := &Map[K, V]{
		machine:     m,
		hash:        hash,
		entryBytes:  entryBytes,
		stripeCount: stripes,
		stripeShift: uint(64 - bits.Len(uint(stripes-1))),
	}
	dm.stripes = make([]stripe[K, V], m.Ranks()*stripes)
	return dm
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

// ownerOf returns the owner rank of a key hash (its low bits).
func (m *Map[K, V]) ownerOf(h uint64) int { return int(h % uint64(m.machine.Ranks())) }

// stripeAt returns the stripe of rank's partition that holds the keys hashing
// to h (its high bits). One hash evaluation serves owner, stripe and probe.
func (m *Map[K, V]) stripeAt(rank int, h uint64) *stripe[K, V] {
	return &m.stripes[rank*m.stripeCount+int(h>>m.stripeShift)]
}

// partition returns the stripes owned by rank.
func (m *Map[K, V]) partition(rank int) []stripe[K, V] {
	return m.stripes[rank*m.stripeCount : (rank+1)*m.stripeCount]
}

// read reads key from its owner's partition: lock-free while the map is
// frozen (a table with no writer is safe to read concurrently, and mutators
// panic), under the stripe lock otherwise.
func (m *Map[K, V]) read(owner int, h uint64, key K) (V, bool) {
	s := m.stripeAt(owner, h)
	if m.frozen.Load() {
		return s.data.Get(h, key)
	}
	s.mu.Lock()
	v, ok := s.data.Get(h, key)
	s.mu.Unlock()
	return v, ok
}

// Len returns the total number of entries across all partitions. It must not
// be called concurrently with updates.
func (m *Map[K, V]) Len() int { return m.lenOf(m.stripes) }

// LocalLen returns the number of entries owned by the given rank.
func (m *Map[K, V]) LocalLen(rank int) int { return m.lenOf(m.partition(rank)) }

func (m *Map[K, V]) lenOf(stripes []stripe[K, V]) int {
	total := 0
	m.scan(stripes, func(s *stripe[K, V]) { total += s.data.Len() })
	return total
}

// scan visits stripes in order, holding each stripe's lock during its visit
// unless the map is frozen.
func (m *Map[K, V]) scan(stripes []stripe[K, V], visit func(*stripe[K, V])) {
	frozen := m.frozen.Load()
	for i := range stripes {
		s := &stripes[i]
		if !frozen {
			s.mu.Lock()
		}
		visit(s)
		if !frozen {
			s.mu.Unlock()
		}
	}
}

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

// Put performs a one-sided write of the entry for key.
func (m *Map[K, V]) Put(r *pgas.Rank, key K, val V) {
	h := m.hash(key)
	owner := m.ownerOf(h)
	if owner == r.ID() {
		r.Compute(1)
	} else {
		r.ChargeSend(owner, m.entryBytes, 1)
	}
	m.put(owner, h, key, val)
}

// put stores an entry into rank's partition, charging nothing.
func (m *Map[K, V]) put(rank int, h uint64, key K, val V) {
	s := m.mutableStripe(rank, h)
	s.mu.Lock()
	s.data.Put(h, key, val)
	s.mu.Unlock()
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
	s := m.mutableStripe(owner, h)
	s.mu.Lock()
	s.data.Delete(h, key)
	s.mu.Unlock()
}

// ForEachLocal iterates over the entries owned by the calling rank, in stripe
// and then slot order. The callback must not call back into the same Map.
// One unit of compute is charged per entry.
func (m *Map[K, V]) ForEachLocal(r *pgas.Rank, f func(K, V)) {
	part := m.partition(r.ID())
	if m.frozen.Load() {
		n := 0
		for si := range part {
			for k, v := range part[si].data.All() {
				n++
				f(k, v)
			}
		}
		r.Compute(float64(n))
		return
	}
	n := m.lenOf(part)
	keys := make([]K, 0, n)
	vals := make([]V, 0, n)
	m.scan(part, func(s *stripe[K, V]) {
		for k, v := range s.data.All() {
			keys = append(keys, k)
			vals = append(vals, v)
		}
	})
	r.Compute(float64(len(keys)))
	for i := range keys {
		f(keys[i], vals[i])
	}
}

// UpdateLocal applies f to the entry for key, which must be owned by the
// calling rank (use case 4: local reads & writes after routing), with one
// probe under one stripe lock. f gets a pointer to the stored value when the
// key is present and edits it in place; otherwise it gets a zero value, which
// is stored only if f returns true — so a caller can decline to admit a key
// (the k-mer analysis Bloom prefilter) without a separate lookup. One unit
// of compute is charged when an entry was updated or stored.
func (m *Map[K, V]) UpdateLocal(r *pgas.Rank, key K, f func(v *V, found bool) bool) {
	h := m.hash(key)
	s := m.mutableStripe(r.ID(), h)
	s.mu.Lock()
	stored := s.data.Update(h, key, f)
	s.mu.Unlock()
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
// must observe the table
// without perturbing the simulated clocks. Iteration is in stripe and then
// slot order, which depends on the insertion history; callers needing an
// order that does not must collect and sort. The callback must not call back
// into the same Map. Safe to call concurrently for distinct ranks; must not
// race with mutations of the same partition.
func (m *Map[K, V]) RangeLocal(rank int, f func(K, V)) {
	m.scan(m.partition(rank), func(s *stripe[K, V]) {
		for k, v := range s.data.All() {
			f(k, v)
		}
	})
}

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
	m.scan(m.stripes, func(s *stripe[K, V]) {
		for k, v := range s.data.All() {
			out[k] = v
		}
	})
	return out
}

// mutableStripe returns the stripe of rank's partition for writing keys that
// hash to h, enforcing the read-only phase discipline: mutating a frozen map
// is a bug in the calling phase.
func (m *Map[K, V]) mutableStripe(rank int, h uint64) *stripe[K, V] {
	if m.frozen.Load() {
		panic("dht: mutation of a frozen map")
	}
	return m.stripeAt(rank, h)
}

// Freeze atomically switches the map into the lock-free read-only phase (use
// case 3, "Global Read-Only"): all subsequent reads (Get, CachedReader.Get,
// ForEachLocal, Snapshot) skip the stripe locks, and mutations panic. There is
// no way back: every table the pipeline freezes is read until it is dropped.
// The stripe tables themselves serve as the immutable snapshot — nothing is
// copied, so freezing the pipeline's largest tables costs neither time nor
// memory.
//
// Freeze must not race with mutations: call it after the barrier that closes
// the last write phase. It is idempotent and safe to call from every rank.
func (m *Map[K, V]) Freeze() { m.frozen.Store(true) }
