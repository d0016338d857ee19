package dht

import "mhmgo/internal/pgas"

// Route implements the "Local Reads & Writes" pattern: every rank provides a
// slice of items; each item is shipped to the rank chosen by ownerOf via a
// single aggregated all-to-all exchange, and the function returns the items
// this rank received (including its own). bytesPerItem is used for cost
// accounting.
//
// After routing, the owner typically applies the items with UpdateLocal /
// SetLocal, which go straight to the owning partition without any
// remote charging.
func Route[T any](r *pgas.Rank, items []T, ownerOf func(T) int, bytesPerItem int) []T {
	r.Compute(float64(len(items)))
	return pgas.ExchangeFunc(r, items,
		func(_ int, item T) int { return ownerOf(item) },
		func(T) int { return bytesPerItem })
}
