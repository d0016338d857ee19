// Package histo provides the Misra–Gries streaming "heavy hitter" counter
// used by k-mer analysis: the paper's specialized treatment of k-mers that
// occur millions of times in highly abundant organisms.
package histo

import (
	"cmp"
	"slices"

	"mhmgo/internal/hashtab"
)

// HeavyHitters is a Misra–Gries summary: it tracks at most capacity
// candidate keys and guarantees that any key whose true frequency exceeds
// the added weight divided by capacity is present in the summary.
type HeavyHitters[K comparable] struct {
	capacity int
	hash     func(K) uint64
	counts   hashtab.Table[K, int64]
}

// NewHeavyHitters creates a summary with the given candidate capacity. hash
// must be a deterministic, well-mixed hash of the key.
func NewHeavyHitters[K comparable](capacity int, hash func(K) uint64) *HeavyHitters[K] {
	if capacity < 1 {
		capacity = 1
	}
	return &HeavyHitters[K]{capacity: capacity, hash: hash}
}

// Add records n occurrences of key.
func (h *HeavyHitters[K]) Add(key K, n int64) {
	if n <= 0 {
		return
	}
	kh := h.hash(key)
	full := h.counts.Len() >= h.capacity
	if h.counts.Update(kh, key, func(c *int64, found bool) bool {
		if !found && full {
			return false
		}
		*c += n
		return true
	}) {
		return
	}
	// Decrement every counter by the smaller of n and the minimum counter,
	// the standard Misra–Gries eviction step generalized to weighted updates.
	dec := n
	for _, c := range h.counts.All() {
		dec = min(dec, c)
	}
	h.counts.DeleteFunc(func(_ K, c *int64) bool {
		*c -= dec
		return *c <= 0
	})
	if rem := n - dec; rem > 0 && h.counts.Len() < h.capacity {
		h.counts.Put(kh, key, rem)
	}
}

// Item is a heavy-hitter candidate and its estimated count.
type Item[K comparable] struct {
	Key   K
	Count int64
}

// Items returns the candidates sorted by descending estimated count.
// Candidates with equal counts keep their slot order, which depends only on
// the stream fed to Add, so two summaries of the same stream return the same
// slice.
func (h *HeavyHitters[K]) Items() []Item[K] {
	items := make([]Item[K], 0, h.counts.Len())
	for k, c := range h.counts.All() {
		items = append(items, Item[K]{Key: k, Count: c})
	}
	slices.SortStableFunc(items, func(a, b Item[K]) int { return cmp.Compare(b.Count, a.Count) })
	return items
}
