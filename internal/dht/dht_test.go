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

// store writes key into its owner's partition, charging nothing. Only the
// owner writes a partition, so a test calls it before Machine.Run or from
// the key's owner rank.
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
	// Snapshot/LocalLen consistency; every rank writes the keys it owns.
	m.Run(func(r *pgas.Rank) {
		for k := 0; k < 1000; k++ {
			if dm.Owner(k) == r.ID() {
				dm.SetLocal(r, k, k*2)
			}
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
	store(dm, 1, 10)
	store(dm, 2, 20)
	m.Run(func(r *pgas.Rank) {
		if dm.Owner(1) == r.ID() {
			dm.DeleteLocal(r, 1)
		}
		r.Barrier()
		dm.Freeze()
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
		for i := 0; i < 4; i++ {
			if dm.Owner(i) == r.ID() {
				dm.SetLocal(r, i, i)
			}
		}
		r.Barrier()
		dm.Freeze()
		for i := 0; i < 4; i++ {
			if v, ok := dm.Get(r, i); !ok || v != i {
				t.Errorf("rank %d: key %d = %d,%v", r.ID(), i, v, ok)
			}
		}
	})
}

// TestMutateAtomicity has every rank read-modify-write one key through the
// unaggregated Updater (the path the ablations run with aggregation off),
// all of it folded by the key's one owner: no increment may be lost.
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
	// Unaggregated: one message per remote update (each rank owns none of
	// the other ranks' share), every byte counted once on each side.
	const remote = 50 * 3 * 20 // each key: 20 updates from each of 3 non-owners
	if resRaw.Stats.Messages != uint64(remote) {
		t.Errorf("unaggregated messages = %d, want one per remote update (%d)", resRaw.Stats.Messages, remote)
	}
	for _, res := range []pgas.RunResult{resAgg, resRaw} {
		if res.Stats.BytesSent != uint64(remote*16) || res.Stats.BytesReceived != res.Stats.BytesSent {
			t.Errorf("bytes sent/received = %d/%d, want %d both", res.Stats.BytesSent, res.Stats.BytesReceived, remote*16)
		}
	}

	// Aggregated: one message per non-local destination per rank, however
	// many updates it buffered. The last case is sparse: three
	// destinations of 64.
	for _, c := range []struct{ p, keys int }{{1, 300}, {3, 300}, {8, 300}, {64, 3}} {
		m := pgas.NewMachine(pgas.Config{Ranks: c.p})
		dm := NewMap[int, int](m, intHash, 16)
		dests := map[int]bool{}
		for k := 0; k < c.keys; k++ {
			dests[dm.Owner(k)] = true
		}
		res := m.Run(func(r *pgas.Rank) {
			u := dm.NewUpdater(r, addInts, 0, true)
			for k := 0; k < c.keys; k++ {
				u.Update(k, 1)
			}
			u.Flush()
			if len(u.pending) != 0 {
				t.Errorf("p=%d rank %d: %d updates still buffered after Flush", c.p, r.ID(), len(u.pending))
			}
			r.Barrier()
		})
		snap := dm.Snapshot()
		for k := 0; k < c.keys; k++ {
			if v, ok := snap[k]; !ok || v != c.p {
				t.Errorf("p=%d key %d = %d (found=%v), want %d", c.p, k, v, ok, c.p)
			}
		}
		if want := uint64(len(dests) * (c.p - 1)); res.Stats.Messages != want {
			t.Errorf("p=%d: %d messages, want %d", c.p, res.Stats.Messages, want)
		}
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
	dm.Freeze()

	var cachedTime, uncachedTime float64
	resCached := m.Run(func(r *pgas.Rank) {
		before := r.Stats()
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
		if hits, misses := readerStats(r, before); hits < misses {
			t.Errorf("%d hits for %d misses: too few for repeated reads", hits, misses)
		}
	})
	cachedTime = resCached.SimSeconds

	resUncached := m.Run(func(r *pgas.Rank) {
		before := r.Stats()
		c := dm.NewCachedReader(r, 1024, false)
		for pass := 0; pass < 10; pass++ {
			for i := 0; i < 100; i++ {
				c.Get(i)
			}
		}
		hits, misses := readerStats(r, before)
		if hits+misses != 1000 {
			t.Errorf("stats %d+%d != 1000", hits, misses)
		}
	})
	uncachedTime = resUncached.SimSeconds

	if cachedTime >= uncachedTime {
		t.Errorf("software cache should reduce simulated time: %v vs %v", cachedTime, uncachedTime)
	}
}

// readerStats returns the cache hits and misses the rank has been charged
// since before: a CachedReader charges each of its hits and misses to the
// rank's counters.
func readerStats(r *pgas.Rank, before pgas.CommStats) (hits, misses uint64) {
	now := r.Stats()
	return now.CacheHits - before.CacheHits, now.CacheMisses - before.CacheMisses
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
		before := r.Stats()
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
		hits[r.ID()], misses[r.ID()] = readerStats(r, before)
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
		for k := 0; k < 400; k++ {
			if dm.Owner(k) == r.ID() {
				dm.SetLocal(r, k, k*3)
			}
		}
		r.Barrier()
		dm.Freeze() // idempotent, every rank may call it
		if !dm.frozen.Load() {
			t.Error("map not frozen after Freeze")
		}
		// Every rank reads the full table.
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
		"DeleteLocal": func(r *pgas.Rank) { dm.DeleteLocal(r, 7) },
		"Restore":     func(r *pgas.Rank) { dm.Restore(r.ID(), 12345, 1) },
		"Updater": func(r *pgas.Rank) {
			u := dm.NewUpdater(r, addInts, 0, false)
			u.Update(7, 1)
			u.Flush()
		},
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

// addInts is the summing Updater combine function.
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
// rank through the unaggregated Updater, the aggregated Updater and
// owner-local writes, and asserts the final counts are exact. Run with
// -race, this is the regression test for the one-writer discipline: only
// rank 0 ever writes rank 0's partition.
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
		// Keys this rank owns, disjoint from every other rank's (k mod
		// ranks names the rank) and from the hot keys.
		k := 1_000_000 + r.ID()
		for i := 0; i < perRank; i++ {
			key := keys[(i+r.ID())%nKeys]
			// One unaggregated update, one buffered update, one owner-local
			// write (of an unrelated key) per iteration.
			raw.Update(key, 1)
			u.Update(key, 1)
			for ; dm.Owner(k) != r.ID(); k += ranks {
			}
			dm.SetLocal(r, k, 1)
			k += ranks
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

// TestUpdaterFoldOrderDeterministic pins the owner-side fold order with a
// combine that is not commutative: appending every update to a per-key
// slice must give the same slices, in ascending source-rank order and each
// source's update order, whatever the worker count.
func TestUpdaterFoldOrderDeterministic(t *testing.T) {
	appendCombine := func(existing, update []int, _ bool) []int { return append(existing, update...) }
	const keys, perKey = 40, 3
	for _, p := range []int{3, 8} {
		var first map[int][]int
		for _, workers := range []int{1, 4} {
			m := pgas.NewMachine(pgas.Config{Ranks: p, Workers: workers})
			dm := NewMap[int, []int](m, intHash, 16)
			m.Run(func(r *pgas.Rank) {
				u := dm.NewUpdater(r, appendCombine, 0, true)
				for j := 0; j < perKey; j++ {
					for k := 0; k < keys; k++ {
						u.Update(k, []int{r.ID()*perKey + j})
					}
				}
				u.Flush()
				r.Barrier()
			})
			snap := dm.Snapshot()
			for k := 0; k < keys; k++ {
				want := make([]int, p*perKey)
				for i := range want {
					want[i] = i
				}
				if !slices.Equal(snap[k], want) {
					t.Errorf("p=%d workers=%d key %d: folded %v, want %v", p, workers, k, snap[k], want)
				}
			}
			if first == nil {
				first = snap
			} else {
				for k, v := range first {
					if !slices.Equal(snap[k], v) {
						t.Errorf("p=%d key %d: workers 1 gave %v, workers %d gave %v", p, k, v, workers, snap[k])
					}
				}
			}
		}
	}
}

// TestRemoteReadOfUnfrozenMapPanics: until Freeze, a partition's owner may
// be writing it, so any other rank's read of it — Get or CachedReader.Get —
// is a phase-discipline bug and panics, while the owner's own reads work.
func TestRemoteReadOfUnfrozenMapPanics(t *testing.T) {
	const ranks = 4
	m := pgas.NewMachine(pgas.Config{Ranks: ranks})
	dm := NewMap[int, int](m, intHash, 16)
	for k := 0; k < 100; k++ {
		store(dm, k, k)
	}
	for name, get := range map[string]func(r *pgas.Rank, k int) (int, bool){
		"Get":              func(r *pgas.Rank, k int) (int, bool) { return dm.Get(r, k) },
		"CachedReader.Get": func(r *pgas.Rank, k int) (int, bool) { return dm.NewCachedReader(r, 16, true).Get(k) },
	} {
		m.Run(func(r *pgas.Rank) {
			mine, theirs := -1, -1
			for k := 0; k < 100 && (mine < 0 || theirs < 0); k++ {
				if dm.Owner(k) == r.ID() {
					mine = k
				} else {
					theirs = k
				}
			}
			if v, ok := get(r, mine); !ok || v != mine {
				t.Errorf("rank %d: %s of own key %d = (%d,%v)", r.ID(), name, mine, v, ok)
			}
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d: %s of rank %d's key on an unfrozen map did not panic", r.ID(), name, dm.Owner(theirs))
				}
			}()
			get(r, theirs)
		})
	}
}

// BenchmarkDHTUpdaterFlush measures the aggregated update phase when every
// rank sends its updates to keys owned by a single hot rank, which folds
// them all.
func BenchmarkDHTUpdaterFlush(b *testing.B) {
	const ranks = 8
	m := pgas.NewMachine(pgas.Config{Ranks: ranks})
	dm := NewMap[int, int](m, intHash, 16)
	keys := hotRankKeys(dm, 1024)
	b.ResetTimer()
	m.Run(func(r *pgas.Rank) {
		u := dm.NewUpdater(r, addInts, 0, true)
		for i := r.ID(); i < b.N; i += ranks {
			u.Update(keys[i&1023], 1)
		}
		u.Flush()
	})
}

// BenchmarkDHTFrozenReads measures the read-only phase: every rank reads
// keys owned by one hot rank from the frozen table.
func BenchmarkDHTFrozenReads(b *testing.B) {
	const ranks = 8
	m := pgas.NewMachine(pgas.Config{Ranks: ranks})
	dm := NewMap[int, int](m, intHash, 16)
	keys := hotRankKeys(dm, 1024)
	for _, k := range keys {
		store(dm, k, k)
	}
	dm.Freeze()
	b.ResetTimer()
	m.Run(func(r *pgas.Rank) {
		for i := r.ID(); i < b.N; i += ranks {
			dm.Get(r, keys[i&1023])
		}
	})
}
