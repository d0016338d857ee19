package dht_test

import (
	"fmt"

	"mhmgo/internal/dht"
	"mhmgo/internal/pgas"
)

func exampleHash(k int) uint64 {
	x := uint64(k) * 0x9e3779b97f4a7c15
	x ^= x >> 32
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return x
}

// ExampleMap shows use case 2, "Global Reads & Writes", as the pipeline runs
// it: every rank fills the entries it owns, and once the table is frozen
// reads any entry one-sidedly with Get, wherever it lives.
func ExampleMap() {
	m := pgas.NewMachine(pgas.Config{Ranks: 4})
	dm := dht.NewMap[int, string](m, exampleHash, 32)
	m.Run(func(r *pgas.Rank) {
		// The key's hash picks the owner rank; each rank stores what it owns.
		for k := 0; k < 4; k++ {
			if dm.Owner(k) == r.ID() {
				dm.SetLocal(r, k, fmt.Sprintf("entry %d", k))
			}
		}
		r.Barrier()
		// Only the owner writes a partition; freezing ends the writes, so
		// every rank may now read every partition.
		dm.Freeze()
		// Every rank reads a different entry, local or remote.
		if v, ok := dm.Get(r, (r.ID()+1)%4); r.ID() == 1 {
			fmt.Println(v, ok)
		}
	})
	fmt.Println(dm.Len())
	// Output:
	// entry 2 true
	// 4
}

// ExampleMap_NewUpdater shows use case 1, "Global Update-Only": commutative
// updates buffered on the sender and delivered to their owners in one
// aggregated exchange, as in the paper's k-mer counting phase.
func ExampleMap_NewUpdater() {
	m := pgas.NewMachine(pgas.Config{Ranks: 4})
	counts := dht.NewMap[int, int](m, exampleHash, 16)
	m.Run(func(r *pgas.Rank) {
		add := func(existing, update int, found bool) int { return existing + update }
		u := counts.NewUpdater(r, add, 64, true)
		// Every rank observes the same 10 "k-mers" 5 times each.
		for pass := 0; pass < 5; pass++ {
			for kmer := 0; kmer < 10; kmer++ {
				u.Update(kmer, 1)
			}
		}
		u.Flush() // collective, required before the phase's closing barrier
		r.Barrier()
	})
	fmt.Println(counts.Len())
	fmt.Println(counts.Snapshot()[7]) // 4 ranks x 5 passes
	// Output:
	// 10
	// 20
}

// ExampleMap_NewCachedReader shows use case 3, "Global Read-Only": once the
// table is no longer mutated, Freeze opens every partition to every rank's
// reads and the per-rank software cache absorbs repeated remote lookups.
func ExampleMap_NewCachedReader() {
	m := pgas.NewMachine(pgas.Config{Ranks: 4})
	dm := dht.NewMap[int, int](m, exampleHash, 16)
	m.Run(func(r *pgas.Rank) {
		for k := 0; k < 100; k++ {
			if dm.Owner(k) == r.ID() {
				dm.SetLocal(r, k, k*k)
			}
		}
		r.Barrier()

		// The write phase is over: read from an immutable snapshot.
		dm.Freeze()
		c := dm.NewCachedReader(r, 1024, true)
		for pass := 0; pass < 10; pass++ {
			for k := 0; k < 100; k++ {
				c.Get(k)
			}
		}
		// The reader charges each hit and miss to the rank's counters.
		if st := r.Stats(); r.ID() == 0 {
			fmt.Printf("hit rate > 80%%: %v\n", st.CacheHits > 4*st.CacheMisses)
		}
	})
	// Output:
	// hit rate > 80%: true
}
