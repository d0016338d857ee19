// Package hashtab provides the one open-addressing hash table that backs
// every partition of dht.Map and the aligner's per-rank seed slots.
//
// The caller supplies the 64-bit hash of every key it passes in — dht has
// already computed it to pick the owner rank — so the table never hashes a
// key itself: a slot stores a remix of that hash inline next to the key and
// value, a probe compares the stored word before it compares the key, and
// growth re-places entries by the stored word. The same key must always be
// presented with the same hash.
//
// The probe start is a remix of the caller's hash, not its low bits: inside
// one dht partition the owner bits (h % P) are the same for every key, and
// indexing by them would pile a partition's keys onto a few probe chains.
//
// Collisions are resolved by linear probing, deletion is backward-shift (no
// tombstones, so a table that deletes most of its entries probes as if they
// had never been there), the zero value is an empty table that holds no
// memory until its first insert, and iteration is in slot order — a function
// of the insertion history alone, identical from run to run.
//
// A Table is not safe for concurrent mutation; concurrent Get and All calls
// with no writer are safe, which is what dht's frozen phase relies on.
package hashtab

import "iter"

// minSlots is a table's first allocation. At P = 4096 a dht.Map has
// thousands of partitions that each hold a handful of entries.
const minSlots = 8

// A table doubles when an insert takes it past loadNum/loadDen full.
const (
	loadNum = 3
	loadDen = 4
)

// slot is one entry. tag is the remixed hash; 0 marks an empty slot, and an
// empty slot's key and val are zero.
type slot[K comparable, V any] struct {
	tag uint64
	key K
	val V
}

// Table maps K to V by open addressing over caller-supplied hashes.
type Table[K comparable, V any] struct {
	slots []slot[K, V] // nil, or a power-of-two length with at least one empty slot
	n     int
}

// remix turns the caller's hash into the stored tag: an invertible mix (so
// equal tags mean equal hashes) whose low bits — the probe start — depend on
// every bit of h, nudged off the empty marker.
func remix(h uint64) uint64 {
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 32
	if h == 0 {
		return 1
	}
	return h
}

// Len returns the number of entries.
func (t *Table[K, V]) Len() int { return t.n }

// find returns the index of the slot holding key, or of the empty slot where
// key belongs. t.slots must not be nil.
func (t *Table[K, V]) find(tag uint64, key K) (int, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.tag == tag && s.key == key {
			return int(i), true
		}
		if s.tag == 0 {
			return int(i), false
		}
	}
}

// Get returns the value stored for key.
func (t *Table[K, V]) Get(h uint64, key K) (V, bool) {
	if t.slots != nil {
		if i, ok := t.find(remix(h), key); ok {
			return t.slots[i].val, true
		}
	}
	var zero V
	return zero, false
}

// Put stores val for key, replacing any previous value.
func (t *Table[K, V]) Put(h uint64, key K, val V) {
	tag := remix(h)
	if t.slots == nil {
		t.slots = make([]slot[K, V], minSlots)
	}
	i, ok := t.find(tag, key)
	if ok {
		t.slots[i].val = val
		return
	}
	t.slots[i] = slot[K, V]{tag: tag, key: key, val: val}
	t.inserted()
}

// Update probes for key once and calls f with a pointer to its value: the
// stored value when found (f edits it in place and its result is ignored), a
// zero value otherwise, which is stored under key only if f returns true.
// Update reports whether key is in the table afterwards. The pointer is valid
// only during the call, and f must not use the table.
func (t *Table[K, V]) Update(h uint64, key K, f func(v *V, found bool) bool) bool {
	tag := remix(h)
	if t.slots == nil {
		// Nothing to probe, and a declined update must not allocate slots: a
		// partition that only ever sees Bloom-filtered singletons stays nil.
		var v V
		if !f(&v, false) {
			return false
		}
		t.Put(h, key, v)
		return true
	}
	i, ok := t.find(tag, key)
	s := &t.slots[i]
	if ok {
		f(&s.val, true)
		return true
	}
	// The empty slot's zero value is the scratch f fills in.
	if !f(&s.val, false) {
		var zero V
		s.val = zero
		return false
	}
	s.tag, s.key = tag, key
	t.inserted()
	return true
}

// inserted counts a new entry and doubles the table once it is past the load
// bound, re-placing every entry by its stored tag.
func (t *Table[K, V]) inserted() {
	t.n++
	if t.n*loadDen <= len(t.slots)*loadNum {
		return
	}
	old := t.slots
	t.slots = make([]slot[K, V], 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for i := range old {
		if old[i].tag == 0 {
			continue
		}
		j := old[i].tag & mask
		for t.slots[j].tag != 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = old[i]
	}
}

// Delete removes key and reports whether it was present.
func (t *Table[K, V]) Delete(h uint64, key K) bool {
	if t.slots == nil {
		return false
	}
	i, ok := t.find(remix(h), key)
	if ok {
		t.deleteAt(uint64(i))
	}
	return ok
}

// deleteAt empties slot i by backward shift: every later entry of the probe
// run that is allowed to sit at the hole (its home slot is at or before it)
// moves back into it, so no lookup ever has to skip a tombstone.
func (t *Table[K, V]) deleteAt(i uint64) {
	mask := uint64(len(t.slots) - 1)
	for j := (i + 1) & mask; t.slots[j].tag != 0; j = (j + 1) & mask {
		if home := t.slots[j].tag & mask; (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[K, V]{}
	t.n--
}

// All iterates over the entries in slot order. The table must not be
// modified during the iteration.
func (t *Table[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for i := range t.slots {
			if s := &t.slots[i]; s.tag != 0 && !yield(s.key, s.val) {
				return
			}
		}
	}
}
