package dht

import "mhmgo/internal/pgas"

// kvPair is the unit buffered by an Updater. The key's hash and owner are
// computed once at Update time and travel with the update, so that the owner
// probes its table without re-hashing.
type kvPair[K comparable, V any] struct {
	key   K
	val   V
	hash  uint64
	owner int
}

// Updater implements the "Global Update-Only" phase: commutative updates are
// buffered on the sending rank, and the collective Flush delivers them to
// their owners in one aggregated exchange. Each owner applies what it
// received to its own partition — no rank writes another's.
type Updater[K comparable, V any] struct {
	m       *Map[K, V]
	r       *pgas.Rank
	combine func(existing V, update V, found bool) V
	pending []kvPair[K, V]
	// local counts the pending updates the calling rank owns: applying
	// them is its own compute, not a message.
	local     int
	aggregate bool
}

// NewUpdater creates an Updater for the calling rank. combine merges an
// incoming update into the existing entry (found reports whether an entry
// already existed). The batch size argument is ignored: Flush ships every
// buffered update in one exchange. aggregate=false charges every remote
// update as its own message, which is used by the ablation experiments and
// the Ray Meta baseline.
func (m *Map[K, V]) NewUpdater(r *pgas.Rank, combine func(existing V, update V, found bool) V, _ int, aggregate bool) *Updater[K, V] {
	return &Updater[K, V]{m: m, r: r, combine: combine, aggregate: aggregate}
}

// Update buffers one commutative update for key.
func (u *Updater[K, V]) Update(key K, val V) {
	owner, h := u.m.place(key)
	u.add(owner, h, key, val)
}

// UpdateWithOwnerHash buffers one commutative update for key, whose owner
// hash (see OwnerOfHash) the caller already holds: a caller that walks a
// sequence's k-mers takes their minimizers from one rolling window instead
// of a scan per key. ownerHash must be the value the map's owner rule gives
// key, or the update lands on a rank that does not own it.
func (u *Updater[K, V]) UpdateWithOwnerHash(key K, ownerHash uint64, val V) {
	u.add(u.m.OwnerOfHash(ownerHash), u.m.hash(key), key, val)
}

// add buffers an update for key, owned by owner and probed with h.
func (u *Updater[K, V]) add(owner int, h uint64, key K, val V) {
	if owner == u.r.ID() {
		u.local++
	}
	u.pending = append(u.pending, kvPair[K, V]{key: key, val: val, hash: h, owner: owner})
}

// Flush applies all buffered updates. It is collective: every rank calls it,
// buffered updates or not, before the phase's closing barrier. One exchange
// routes each update to its key's owner (one aggregated message per
// destination, or one per remote update when aggregation is off), and each
// owner folds what it received into its own partition in ascending
// source-rank order, each source's updates in the order it made them — so
// the stored values are a function of the updates alone, even for a combine
// that is not commutative.
func (u *Updater[K, V]) Flush() {
	m, r := u.m, u.r
	part := m.mutable(r.ID())
	owner := func(_ int, kv kvPair[K, V]) int { return kv.owner }
	if !u.aggregate {
		pgas.ChargeUnaggregated(r, u.pending, owner)
	}
	r.Compute(float64(u.local))
	received := pgas.ExchangeFunc(r, u.pending, owner, func(kvPair[K, V]) int { return m.entryBytes })
	u.pending, u.local = u.pending[:0], 0
	for i := range received {
		kv := &received[i]
		part.Update(kv.hash, kv.key, func(v *V, found bool) bool {
			*v = u.combine(*v, kv.val, found)
			return true
		})
	}
	r.ReleaseResident(len(received) * m.entryBytes)
}
