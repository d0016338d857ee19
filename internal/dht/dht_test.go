package dht

import (
	"runtime"
	"slices"
	"testing"

	"mhmgo/internal/pgas"
)

func intHash(k int) uint64 {
	x := uint64(k) * 0x9e3779b97f4a7c15
	x ^= x >> 32
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return x
}

// store writes key into its owner's partition from wherever it is called,
// charging nothing: the tests' stand-in for a remote write.
func store[K comparable, V any](dm *Map[K, V], key K, val V) {
	dm.Restore(dm.Owner(key), key, val)
}

func TestMapOwnerPartitioning(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 8})
	dm := NewMap[int, int](m, intHash, 16)
	counts := make([]int, 8)
	for k := 0; k < 10000; k++ {
		counts[dm.Owner(k)]++
	}
	for rank, c := range counts {
		if c < 10000/16 || c > 10000/4 {
			t.Errorf("rank %d owns %d of 10000 keys; partitioning is badly skewed", rank, c)
		}
	}
	// Snapshot/LocalLen consistency.
	m.Run(func(r *pgas.Rank) {
		lo, hi := r.BlockRange(1000)
		for k := lo; k < hi; k++ {
			store(dm, k, k*2)
		}
	})
	total := 0
	for rank := 0; rank < 8; rank++ {
		total += dm.LocalLen(rank)
	}
	if total != 1000 || dm.Len() != 1000 {
		t.Errorf("LocalLen sum = %d, Len = %d, want 1000", total, dm.Len())
	}
	snap := dm.Snapshot()
	if len(snap) != 1000 || snap[500] != 1000 {
		t.Errorf("snapshot wrong: len=%d snap[500]=%d", len(snap), snap[500])
	}
}

func TestMapDelete(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 2})
	dm := NewMap[int, int](m, intHash, 16)
	m.Run(func(r *pgas.Rank) {
		if r.ID() == 0 {
			store(dm, 1, 10)
			store(dm, 2, 20)
		}
		r.Barrier()
		if r.ID() == 1 {
			dm.Delete(r, 1)
		}
		r.Barrier()
		if _, ok := dm.Get(r, 1); ok {
			t.Error("deleted key still present")
		}
		if v, ok := dm.Get(r, 2); !ok || v != 20 {
			t.Error("surviving key lost")
		}
	})
}

func TestNewMapCollective(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 4})
	m.Run(func(r *pgas.Rank) {
		dm := NewMapCollective[int, int](r, intHash, 16)
		if dm == nil {
			t.Errorf("rank %d received nil map", r.ID())
			return
		}
		store(dm, r.ID(), r.ID())
		r.Barrier()
		for i := 0; i < 4; i++ {
			if v, ok := dm.Get(r, i); !ok || v != i {
				t.Errorf("rank %d: key %d = %d,%v", r.ID(), i, v, ok)
			}
		}
	})
}

// TestMutateAtomicity has every rank read-modify-write one key through the
// unaggregated Updater (each update its own flush, the path the pipeline's
// hot owner ranks run with aggregation off): no increment may be lost.
func TestMutateAtomicity(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 8})
	dm := NewMap[string, int](m, func(s string) uint64 { return 7 }, 16)
	const perRank = 500
	m.Run(func(r *pgas.Rank) {
		u := dm.NewUpdater(r, func(e, v int, _ bool) int { return e + v }, 0, false)
		for i := 0; i < perRank; i++ {
			u.Update("counter", 1)
		}
		u.Flush()
	})
	snap := dm.Snapshot()
	if snap["counter"] != 8*perRank {
		t.Errorf("counter = %d, want %d; an unaggregated update was lost", snap["counter"], 8*perRank)
	}
}

func TestUpdaterAggregation(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 4, RanksPerNode: 1})
	combine := func(existing, update int, found bool) int {
		if !found {
			return update
		}
		return existing + update
	}

	// Aggregated updates.
	dmAgg := NewMap[int, int](m, intHash, 16)
	resAgg := m.Run(func(r *pgas.Rank) {
		u := dmAgg.NewUpdater(r, combine, 64, true)
		for i := 0; i < 1000; i++ {
			u.Update(i%50, 1)
		}
		u.Flush()
		r.Barrier()
	})

	// Unaggregated updates (one message per update).
	dmRaw := NewMap[int, int](m, intHash, 16)
	resRaw := m.Run(func(r *pgas.Rank) {
		u := dmRaw.NewUpdater(r, combine, 64, false)
		for i := 0; i < 1000; i++ {
			u.Update(i%50, 1)
		}
		u.Flush()
		r.Barrier()
	})

	// Both must produce identical contents: 4 ranks x 20 occurrences of each
	// of the 50 keys.
	snapA, snapR := dmAgg.Snapshot(), dmRaw.Snapshot()
	if len(snapA) != 50 || len(snapR) != 50 {
		t.Fatalf("snapshot sizes %d/%d, want 50", len(snapA), len(snapR))
	}
	for k, v := range snapA {
		if v != 80 {
			t.Errorf("aggregated key %d = %d, want 80", k, v)
		}
		if snapR[k] != v {
			t.Errorf("aggregation changed results for key %d: %d vs %d", k, v, snapR[k])
		}
	}

	// Aggregation must reduce message count and simulated time.
	if resAgg.Stats.Messages >= resRaw.Stats.Messages {
		t.Errorf("aggregated messages (%d) should be fewer than unaggregated (%d)",
			resAgg.Stats.Messages, resRaw.Stats.Messages)
	}
	if resAgg.SimSeconds >= resRaw.SimSeconds {
		t.Errorf("aggregated time (%v) should beat unaggregated (%v)",
			resAgg.SimSeconds, resRaw.SimSeconds)
	}
}

func TestUpdaterLocalShortcut(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 1})
	dm := NewMap[int, int](m, intHash, 16)
	res := m.Run(func(r *pgas.Rank) {
		u := dm.NewUpdater(r, func(e, v int, ok bool) int { return e + v }, 8, true)
		for i := 0; i < 100; i++ {
			u.Update(i, i)
		}
		u.Flush()
	})
	if res.Stats.Messages != 0 {
		t.Errorf("single-rank updates should not send messages, got %d", res.Stats.Messages)
	}
	if dm.Len() != 100 {
		t.Errorf("Len = %d, want 100", dm.Len())
	}
}

func TestUpdaterFlushAllStaggered(t *testing.T) {
	// Flush visits exactly the destinations it buffered for, starting at the
	// caller's own rank and wrapping around (so concurrent end-of-phase
	// flushes don't convoy on partition 0); it must leave nothing buffered
	// and change neither the contents nor the charged cost. The last case is
	// sparse: three destinations of 64.
	for _, c := range []struct{ p, keys int }{{1, 300}, {3, 300}, {8, 300}, {64, 3}} {
		p := c.p
		m := pgas.NewMachine(pgas.Config{Ranks: p})
		dm := NewMap[int, int](m, intHash, 16)
		dests := map[int]bool{}
		for k := 0; k < c.keys; k++ {
			dests[dm.Owner(k)] = true
		}
		res := m.Run(func(r *pgas.Rank) {
			// Every update carries its key, so combine sees which
			// destination is being flushed; offsets are from the caller.
			var offsets []int
			u := dm.NewUpdater(r, func(e, key int, _ bool) int {
				if off := (dm.Owner(key) - r.ID() + p) % p; len(offsets) == 0 || offsets[len(offsets)-1] != off {
					offsets = append(offsets, off)
				}
				return e + 1
			}, 1<<20, true)
			for k := 0; k < c.keys; k++ {
				u.Update(k, k)
			}
			u.Flush()
			if len(offsets) != len(dests) || !slices.IsSorted(offsets) {
				t.Errorf("p=%d rank %d: flushed at offsets %v, want %d destinations in staggered order", p, r.ID(), offsets, len(dests))
			}
			for dest, batch := range u.batches {
				if len(batch) != 0 {
					t.Errorf("p=%d rank %d: %d updates for rank %d still buffered after Flush", p, r.ID(), len(batch), dest)
				}
			}
			r.Barrier()
		})
		snap := dm.Snapshot()
		for k := 0; k < c.keys; k++ {
			if v, ok := snap[k]; !ok || v != p {
				t.Errorf("p=%d key %d = %d (found=%v), want %d", p, k, v, ok, p)
			}
		}
		// One aggregated message per non-local destination per rank.
		if want := uint64(len(dests) * (p - 1)); res.Stats.Messages != want {
			t.Errorf("p=%d: %d messages, want %d", p, res.Stats.Messages, want)
		}
	}
}

func TestForEachLocalAndUpdateLocal(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 4})
	dm := NewMap[int, int](m, intHash, 16)
	m.Run(func(r *pgas.Rank) {
		u := dm.NewUpdater(r, func(e, v int, ok bool) int { return e + v }, 32, true)
		lo, hi := r.BlockRange(400)
		for i := lo; i < hi; i++ {
			u.Update(i, 1)
		}
		u.Flush()
		r.Barrier()
		// Each rank doubles its local entries.
		var localKeys []int
		dm.ForEachLocal(r, func(k, v int) { localKeys = append(localKeys, k) })
		for _, k := range localKeys {
			dm.UpdateLocal(r, k, func(v *int, found bool) bool {
				if !found {
					t.Errorf("local key %d vanished", k)
				}
				*v *= 2
				return true
			})
		}
		r.Barrier()
	})
	snap := dm.Snapshot()
	if len(snap) != 400 {
		t.Fatalf("len = %d, want 400", len(snap))
	}
	for k, v := range snap {
		if v != 2 {
			t.Errorf("key %d = %d, want 2", k, v)
		}
	}
}

// TestUpdateLocalDecline checks the admit-or-decline contract k-mer analysis
// builds its Bloom prefilter on: a declined absent key is neither stored nor
// charged, an admitted one is stored with what the callback wrote, and a
// present key is edited in place whatever the callback returns.
func TestUpdateLocalDecline(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 2})
	dm := NewMap[int, int](m, intHash, 16)
	res := m.Run(func(r *pgas.Rank) {
		var mine []int
		for k := 0; len(mine) < 50; k++ {
			if dm.Owner(k) == r.ID() {
				mine = append(mine, k)
			}
		}
		for i, k := range mine {
			admit := i%2 == 0
			dm.UpdateLocal(r, k, func(v *int, found bool) bool {
				if found || *v != 0 {
					t.Errorf("fresh key %d: found=%v v=%d", k, found, *v)
				}
				*v = 7 // scribbled even when declining: must not leak into the table
				return admit
			})
		}
		for i, k := range mine {
			dm.UpdateLocal(r, k, func(v *int, found bool) bool {
				if found != (i%2 == 0) {
					t.Errorf("key %d: found=%v after admit=%v", k, found, i%2 == 0)
				}
				if found {
					*v += 1
				} else if *v != 0 {
					t.Errorf("declined key %d left %d behind", k, *v)
				}
				return false
			})
		}
	})
	if got := dm.Len(); got != 50 {
		t.Fatalf("len = %d, want the 50 admitted keys", got)
	}
	for k, v := range dm.Snapshot() {
		if v != 8 {
			t.Errorf("key %d = %d, want 8", k, v)
		}
	}
	// 25 stores and 25 in-place edits per rank, one unit each.
	if got := res.Stats.ComputeOps; got != 100 {
		t.Errorf("compute ops = %v, want 100 (declined updates are free)", got)
	}
}

func TestCachedReader(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 4, RanksPerNode: 1})
	dm := NewMap[int, int](m, intHash, 64)
	for i := 0; i < 100; i++ {
		store(dm, i, i)
	}

	var cachedTime, uncachedTime float64
	resCached := m.Run(func(r *pgas.Rank) {
		c := dm.NewCachedReader(r, 1024, true)
		for pass := 0; pass < 10; pass++ {
			for i := 0; i < 100; i++ {
				if v, ok := c.Get(i); !ok || v != i {
					t.Errorf("cached get %d = %d,%v", i, v, ok)
				}
			}
		}
		// Negative lookups are also cached.
		for pass := 0; pass < 10; pass++ {
			if _, ok := c.Get(100000); ok {
				t.Error("phantom key")
			}
		}
		if hits, misses := c.Stats(); hits < misses {
			t.Errorf("%d hits for %d misses: too few for repeated reads", hits, misses)
		}
	})
	cachedTime = resCached.SimSeconds

	resUncached := m.Run(func(r *pgas.Rank) {
		c := dm.NewCachedReader(r, 1024, false)
		for pass := 0; pass < 10; pass++ {
			for i := 0; i < 100; i++ {
				c.Get(i)
			}
		}
		hits, misses := c.Stats()
		if hits+misses != 1000 {
			t.Errorf("stats %d+%d != 1000", hits, misses)
		}
	})
	uncachedTime = resUncached.SimSeconds

	if cachedTime >= uncachedTime {
		t.Errorf("software cache should reduce simulated time: %v vs %v", cachedTime, uncachedTime)
	}
}

// TestCachedReaderBudgets drives one reader past maxEntries with present and
// with absent remote keys, interleaved, and pins the hit/miss sequence totals
// against the numbers the two-builtin-map reader produced (captured at
// commit ec37817 with this same test body): positive and
// negative entries each have their own maxEntries budget, entries are never
// evicted, and once a budget is spent later keys of that kind always miss.
// aligner.cache_hit_rate, pgas.cache_hit_rate and the simulated clock all
// follow from this sequence.
func TestCachedReaderBudgets(t *testing.T) {
	const maxEntries = 64
	m := pgas.NewMachine(pgas.Config{Ranks: 4, RanksPerNode: 2})
	dm := NewMap[int, int](m, intHash, 16)
	m.Run(func(r *pgas.Rank) {
		if r.ID() == 0 {
			for k := 0; k < 1000; k++ {
				store(dm, k, k+1)
			}
		}
	})
	var hits, misses [4]uint64
	res := m.Run(func(r *pgas.Rank) {
		dm.Freeze()
		c := dm.NewCachedReader(r, maxEntries, true)
		for pass := 0; pass < 3; pass++ {
			// 300 present keys (0..299) and 300 absent ones (5000..5299),
			// interleaved; ~3/4 of each are remote, well past both budgets.
			for i := 0; i < 300; i++ {
				if v, ok := c.Get(i); !ok || v != i+1 {
					t.Errorf("rank %d: Get(%d) = (%d,%v)", r.ID(), i, v, ok)
				}
				if v, ok := c.Get(5000 + i); ok || v != 0 {
					t.Errorf("rank %d: Get(%d) = (%d,%v), want absent", r.ID(), 5000+i, v, ok)
				}
			}
		}
		hits[r.ID()], misses[r.ID()] = c.Stats()
	})
	wantHits := [4]uint64{703, 727, 742, 652}
	wantMisses := [4]uint64{1097, 1073, 1058, 1148}
	if hits != wantHits || misses != wantMisses {
		t.Errorf("hits %v misses %v, want %v and %v", hits, misses, wantHits, wantMisses)
	}
	if res.Stats.CacheHits != 2824 || res.Stats.CacheMisses != 4376 {
		t.Errorf("machine cache hits/misses = %d/%d, want 2824/4376", res.Stats.CacheHits, res.Stats.CacheMisses)
	}
	if res.SimSeconds != 0.0020278896000000073 {
		t.Errorf("simulated seconds = %v, want 0.0020278896000000073", res.SimSeconds)
	}
}

// TestNewMapAllocations: at P = 4096 most partitions stay empty forever on
// small inputs. Creating the map must cost a constant number of objects —
// not one per rank — and an empty partition must hold no slots.
func TestNewMapAllocations(t *testing.T) {
	const p = 4096
	m := pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 32})
	var dm *Map[int, int]
	allocs := testing.AllocsPerRun(3, func() {
		dm = NewMap[int, int](m, intHash, 16)
	})
	if allocs > 4 {
		t.Errorf("NewMap at P=%d allocated %v objects, want a handful", p, allocs)
	}
	if len(dm.parts) != p {
		t.Fatalf("%d partitions, want %d", len(dm.parts), p)
	}
	store(dm, 7, 70)
	snap := dm.Snapshot()
	for k, want := range map[int]int{7: 70, 8: 0} {
		if v, ok := snap[k]; v != want || ok != (want != 0) {
			t.Errorf("Snapshot()[%d] = (%d,%v)", k, v, ok)
		}
	}
	if got := dm.Len(); got != 1 {
		t.Errorf("Len() = %d, want 1", got)
	}
}

func TestFreeze(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 4})
	dm := NewMap[int, int](m, intHash, 16)
	m.Run(func(r *pgas.Rank) {
		lo, hi := r.BlockRange(400)
		for k := lo; k < hi; k++ {
			store(dm, k, k*3)
		}
		r.Barrier()
		dm.Freeze() // idempotent, every rank may call it
		if !dm.frozen.Load() {
			t.Error("map not frozen after Freeze")
		}
		// Lock-free reads see the full table.
		for k := 0; k < 400; k++ {
			if v, ok := dm.Get(r, k); !ok || v != k*3 {
				t.Errorf("frozen Get(%d) = %d,%v", k, v, ok)
			}
		}
		c := dm.NewCachedReader(r, 1024, true)
		for k := 0; k < 400; k++ {
			if v, ok := c.Get(k); !ok || v != k*3 {
				t.Errorf("frozen cached Get(%d) = %d,%v", k, v, ok)
			}
		}
		n := 0
		dm.ForEachLocal(r, func(k, v int) { n++ })
		if n != dm.LocalLen(r.ID()) {
			t.Errorf("frozen ForEachLocal visited %d entries, LocalLen = %d", n, dm.LocalLen(r.ID()))
		}
	})
	if dm.Len() != 400 {
		t.Errorf("frozen Len = %d, want 400", dm.Len())
	}
	if snap := dm.Snapshot(); len(snap) != 400 || snap[7] != 21 {
		t.Errorf("frozen Snapshot wrong: len=%d snap[7]=%d", len(snap), snap[7])
	}

	// Mutating a frozen map is a phase-discipline bug and every mutator must
	// panic. The recover has to live inside the rank body: panics do not
	// cross goroutines.
	for name, mutate := range map[string]func(r *pgas.Rank){
		"SetLocal":    func(r *pgas.Rank) { dm.SetLocal(r, 12345, 1) },
		"UpdateLocal": func(r *pgas.Rank) { dm.UpdateLocal(r, 12345, func(*int, bool) bool { return true }) },
		"Delete":      func(r *pgas.Rank) { dm.Delete(r, 7) },
		"Restore":     func(r *pgas.Rank) { store(dm, 12345, 1) },
		"Updater":     func(r *pgas.Rank) { dm.NewUpdater(r, addInts, 0, false).Update(7, 1) },
	} {
		m.Run(func(r *pgas.Rank) {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d: %s on frozen map did not panic", r.ID(), name)
				}
			}()
			mutate(r)
		})
	}
	if snap := dm.Snapshot(); len(snap) != 400 || snap[7] != 21 {
		t.Errorf("refused mutations changed the map: len=%d snap[7]=%d", len(snap), snap[7])
	}
}

// TestLayoutIndependentOfGOMAXPROCS pins that a partition's layout, and with
// it every iteration order, is a function of the rank count and the
// insertion history only: the same fill visits in the same order whatever
// the host's core count.
func TestLayoutIndependentOfGOMAXPROCS(t *testing.T) {
	const ranks = 4
	visitOrder := func(procs int) [ranks][]int {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m := pgas.NewMachine(pgas.Config{Ranks: ranks})
		dm := NewMap[int, int](m, intHash, 16)
		for k := 0; k < 2000; k++ {
			store(dm, k, k)
		}
		var order [ranks][]int
		m.Run(func(r *pgas.Rank) {
			dm.ForEachLocal(r, func(k, _ int) { order[r.ID()] = append(order[r.ID()], k) })
		})
		return order
	}
	one, sixteen := visitOrder(1), visitOrder(16)
	for rank := range one {
		if !slices.Equal(one[rank], sixteen[rank]) {
			t.Errorf("rank %d: ForEachLocal order under GOMAXPROCS=1 and 16 differ (first keys %v vs %v)",
				rank, one[rank][:8], sixteen[rank][:8])
		}
	}
}

// addInts is the Updater combine function of the contention tests.
func addInts(existing, update int, _ bool) int { return existing + update }

// hotRankKeys returns n keys that all hash to owner rank 0 of dm.
func hotRankKeys(dm *Map[int, int], n int) []int {
	keys := make([]int, 0, n)
	for k := 0; len(keys) < n; k++ {
		if dm.Owner(k) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestSingleOwnerStress drives every rank's traffic at a single hot owner
// rank through the unaggregated Updater (one lock acquisition per update),
// the aggregated Updater (one per batch) and direct stores, and asserts the
// final counts are exact. Run with -race, this is the regression test for
// partition-level synchronization.
func TestSingleOwnerStress(t *testing.T) {
	const (
		ranks   = 8
		nKeys   = 64
		perRank = 2000
	)
	m := pgas.NewMachine(pgas.Config{Ranks: ranks})
	dm := NewMap[int, int](m, intHash, 16)
	keys := hotRankKeys(dm, nKeys)
	m.Run(func(r *pgas.Rank) {
		u := dm.NewUpdater(r, addInts, 128, true)
		raw := dm.NewUpdater(r, addInts, 0, false)
		for i := 0; i < perRank; i++ {
			key := keys[(i+r.ID())%nKeys]
			// One unaggregated update, one buffered update, one direct
			// write (of an unrelated per-rank key) per iteration.
			raw.Update(key, 1)
			u.Update(key, 1)
			store(dm, 1_000_000+r.ID()*perRank+i, 1)
		}
		u.Flush()
		raw.Flush()
		r.Barrier()
	})
	snap := dm.Snapshot()
	total := 0
	for _, k := range keys {
		total += snap[k]
	}
	want := 2 * ranks * perRank // both Updaters' contributions
	if total != want {
		t.Errorf("hot keys sum to %d, want %d", total, want)
	}
	if dm.Len() != nKeys+ranks*perRank {
		t.Errorf("Len = %d, want %d", dm.Len(), nKeys+ranks*perRank)
	}
}

// BenchmarkDHTContention measures unaggregated-update throughput when every
// rank hammers keys owned by a single hot rank: the one traffic shape in
// which every update meets the same partition lock.
func BenchmarkDHTContention(b *testing.B) { benchmarkHotRank(b, 0, false) }

// BenchmarkDHTUpdaterFlush measures the aggregated update phase against the
// same hot rank: one lock acquisition per 256-update batch.
func BenchmarkDHTUpdaterFlush(b *testing.B) { benchmarkHotRank(b, 256, true) }

func benchmarkHotRank(b *testing.B, batchSize int, aggregate bool) {
	const ranks = 8
	// Contention only manifests when the rank goroutines actually run on
	// multiple Ps. On small CI machines, pin GOMAXPROCS to the rank count
	// (the same knob `go test -cpu` turns) so the lock pays its real
	// cross-thread handoff cost.
	if runtime.GOMAXPROCS(0) < ranks {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(ranks))
	}
	m := pgas.NewMachine(pgas.Config{Ranks: ranks})
	dm := NewMap[int, int](m, intHash, 16)
	keys := hotRankKeys(dm, 1024)
	b.ResetTimer()
	m.Run(func(r *pgas.Rank) {
		u := dm.NewUpdater(r, addInts, batchSize, aggregate)
		for i := r.ID(); i < b.N; i += ranks {
			u.Update(keys[i&1023], 1)
		}
		u.Flush()
	})
}

// BenchmarkDHTFrozenReads measures the read-only phase with and without
// Freeze: frozen reads skip the partition lock entirely, which pays off even
// without physical parallelism.
func BenchmarkDHTFrozenReads(b *testing.B) {
	for _, frozen := range []bool{false, true} {
		name := "locked"
		if frozen {
			name = "frozen"
		}
		b.Run(name, func(b *testing.B) {
			const ranks = 8
			m := pgas.NewMachine(pgas.Config{Ranks: ranks})
			dm := NewMap[int, int](m, intHash, 16)
			keys := hotRankKeys(dm, 1024)
			for _, k := range keys {
				store(dm, k, k)
			}
			if frozen {
				dm.Freeze()
			}
			b.ResetTimer()
			m.Run(func(r *pgas.Rank) {
				for i := r.ID(); i < b.N; i += ranks {
					dm.Get(r, keys[i&1023])
				}
			})
		})
	}
}
