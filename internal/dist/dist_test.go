package dist

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mhmgo/internal/pgas"
)

type rec struct {
	ID  int
	Seq string
}

func recOwner(x rec) int     { return len(x.Seq) } // content-derived, P-independent modulo P
func recWire(x rec) int      { return 8 + len(x.Seq) }
func recLess(a, b rec) bool  { return a.Seq < b.Seq }
func recEqual(a, b rec) bool { return a.Seq == b.Seq }

// buildRecs gives rank r a deterministic slice of records.
func buildRecs(rank, perRank int) []rec {
	out := make([]rec, perRank)
	for i := range out {
		out[i] = rec{Seq: fmt.Sprintf("r%d-%0*d", rank, 1+i%3, i)}
	}
	return out
}

// TestSetRoutesToOwners: every item lands on exactly the rank its owner
// function names, in source-rank order.
func TestSetRoutesToOwners(t *testing.T) {
	const p = 4
	m := pgas.NewMachine(pgas.Config{Ranks: p})
	m.Run(func(r *pgas.Rank) {
		s := New(r, buildRecs(r.ID(), 9), recOwner, recWire, Distributed)
		for _, item := range s.Local(r) {
			if recOwner(item)%p != r.ID() {
				t.Errorf("rank %d holds foreign item %q", r.ID(), item.Seq)
			}
		}
		if total := s.GlobalLen(r); total != p*9 {
			t.Errorf("GlobalLen = %d, want %d", total, p*9)
		}
	})
}

// allIDs returns every item's global ID in rank-major order: ascending ID.
func allIDs[T any](s *Set[T]) []int {
	var ids []int
	for p, shard := range s.shards {
		for i := range shard {
			ids = append(ids, ID(p, i))
		}
	}
	return ids
}

// TestRenumberDenseAndLocatable: every shard's IDs are ID(rank, 0..n-1) —
// dense within the shard — and Locate and an uncached Reader find every
// item from its ID alone.
func TestRenumberDenseAndLocatable(t *testing.T) {
	const p = 5 // non-power-of-two
	m := pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 2})
	m.Run(func(r *pgas.Rank) {
		s := New(r, buildRecs(r.ID(), 4+r.ID()), recOwner, recWire, Distributed)
		s.SortLocal(r, recLess)
		s.Renumber(r, func(i, id int) { s.Local(r)[i].ID = id })
		for i, item := range s.Local(r) {
			if item.ID != ID(r.ID(), i) {
				t.Errorf("rank %d item %d has ID %d, want %d", r.ID(), i, item.ID, ID(r.ID(), i))
			}
		}
		ids := allIDs(s)
		wantTotal := 0
		for i := 0; i < p; i++ {
			wantTotal += 4 + i
		}
		if len(ids) != wantTotal {
			t.Errorf("%d items after Renumber, want %d", len(ids), wantTotal)
		}
		rd := s.NewReader(r, 0)
		for _, id := range ids {
			if item := rd.Get(id); item.ID != id {
				t.Errorf("Get(%d) returned item with ID %d", id, item.ID)
			}
			if owner, idx := Locate(id); owner < 0 || owner >= p || idx >= len(s.shards[owner]) {
				t.Errorf("Locate(%d) = (%d, %d) names no item", id, owner, idx)
			}
		}
	})
}

// TestIDLocateProperty: Locate inverts ID for every rank of P in {1, 5,
// 4096} and every index up to 2^32-1, and IDs order exactly as (rank, index)
// pairs order lexicographically. At P=4096 a Set keeps no O(P) state beyond
// its shard directory: the ID → owner map is arithmetic.
func TestIDLocateProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const maxIdx = 1<<32 - 1
	for _, p := range []int{1, 5, 4096} {
		type pair struct{ rank, idx int }
		pick := func() pair {
			idx := rng.Intn(maxIdx + 1)
			switch rng.Intn(4) {
			case 0:
				idx = 0
			case 1:
				idx = maxIdx
			}
			return pair{rng.Intn(p), idx}
		}
		for trial := 0; trial < 20000; trial++ {
			a, b := pick(), pick()
			if rank, idx := Locate(ID(a.rank, a.idx)); rank != a.rank || idx != a.idx {
				t.Fatalf("P=%d: Locate(ID(%d, %d)) = (%d, %d)", p, a.rank, a.idx, rank, idx)
			}
			lexLess := a.rank < b.rank || a.rank == b.rank && a.idx < b.idx
			if got := ID(a.rank, a.idx) < ID(b.rank, b.idx); got != lexLess {
				t.Fatalf("P=%d: ID(%d, %d) < ID(%d, %d) is %v, lexicographic order says %v",
					p, a.rank, a.idx, b.rank, b.idx, got, lexLess)
			}
		}
	}

	const p = 4096
	m := pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 16})
	var s *Set[rec]
	m.Run(func(r *pgas.Rank) {
		set := New(r, buildRecs(r.ID(), r.ID()%3), recOwner, recWire, Distributed)
		set.Renumber(r, func(i, id int) { set.Local(r)[i].ID = id })
		if r.ID() == 0 {
			s = set
		}
	})
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Slice, reflect.Array, reflect.Map:
			if name != "shards" && f.Len() >= p {
				t.Errorf("Set.%s has %d entries at P=%d: only the shard directory may be O(P)", name, f.Len(), p)
			}
		}
	}
}

// TestReaderCachesRemoteGets: repeated remote fetches of the same ID hit the
// software cache; local fetches bypass it.
func TestReaderCachesRemoteGets(t *testing.T) {
	const p = 2
	m := pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 1})
	res := m.Run(func(r *pgas.Rank) {
		s := New(r, buildRecs(r.ID(), 6), recOwner, recWire, Distributed)
		s.Renumber(r, func(i, id int) { s.Local(r)[i].ID = id })
		rd := s.NewReader(r, 1<<10)
		for rep := 0; rep < 3; rep++ {
			for _, id := range allIDs(s) {
				rd.Get(id)
			}
		}
	})
	if res.Stats.CacheMisses == 0 || res.Stats.CacheHits == 0 {
		t.Fatalf("expected both misses and hits, got %+v", res.Stats)
	}
	if res.Stats.CacheHits < 2*res.Stats.CacheMisses {
		t.Errorf("second and third sweeps should hit: hits=%d misses=%d",
			res.Stats.CacheHits, res.Stats.CacheMisses)
	}
}

// TestSortDedupFilter: owner-local sort+dedup removes duplicates routed to
// the same owner from different ranks, and FilterLocal drops and releases.
func TestSortDedupFilter(t *testing.T) {
	const p = 3
	m := pgas.NewMachine(pgas.Config{Ranks: p})
	m.Run(func(r *pgas.Rank) {
		// Every rank contributes the same three records: global dedup must
		// collapse them to one copy each.
		local := []rec{{Seq: "AAAA"}, {Seq: "CCG"}, {Seq: "TT"}}
		s := New(r, local, recOwner, recWire, Distributed)
		s.SortLocal(r, recLess)
		s.DedupLocal(r, recEqual)
		if total := s.GlobalLen(r); total != 3 {
			t.Errorf("after dedup GlobalLen = %d, want 3", total)
		}
		dropped := s.FilterLocal(r, func(x rec) bool { return len(x.Seq) > 2 })
		_ = dropped
		if total := s.GlobalLen(r); total != 2 {
			t.Errorf("after filter GlobalLen = %d, want 2", total)
		}
	})
}

// TestEmitRankOrderOnRootOnly: Emit returns the concatenation of the shards
// in rank order — ascending ID — on rank 0 and nil elsewhere, and no rank —
// including the
// streaming writer rank 0 — ever holds the full payload against the
// resident meter.
func TestEmitRankOrderOnRootOnly(t *testing.T) {
	const p = 4
	m := pgas.NewMachine(pgas.Config{Ranks: p})
	peaks := make([]uint64, p)
	var totalBytes int
	m.Run(func(r *pgas.Rank) {
		s := New(r, buildRecs(r.ID(), 5), recOwner, recWire, Distributed)
		s.SortLocal(r, recLess)
		s.Renumber(r, func(i, id int) { s.Local(r)[i].ID = id })
		out := s.Emit(r)
		if r.ID() == 0 {
			if len(out) != p*5 {
				t.Errorf("rank 0 emitted %d items, want %d", len(out), p*5)
			}
			for i, item := range out {
				if i > 0 && item.ID <= out[i-1].ID {
					t.Errorf("emit order broken at %d: ID %d after %d", i, item.ID, out[i-1].ID)
					break
				}
				totalBytes += recWire(item)
			}
		} else if out != nil {
			t.Errorf("rank %d received emitted items", r.ID())
		}
		peaks[r.ID()] = r.Stats().PeakResidentBytes
	})
	var anyResident bool
	for rank := 0; rank < p; rank++ {
		if peaks[rank] > 0 {
			anyResident = true
		}
		if peaks[rank] >= uint64(totalBytes) {
			t.Errorf("rank %d peak %d should be a shard-sized fraction of the %d-byte payload",
				rank, peaks[rank], totalBytes)
		}
	}
	if !anyResident {
		t.Error("no rank recorded any resident bytes")
	}
}

// TestExchangeOwnerRouted: Exchange delivers every item to its owner exactly
// once.
func TestExchangeOwnerRouted(t *testing.T) {
	const p = 4
	m := pgas.NewMachine(pgas.Config{Ranks: p})
	m.Run(func(r *pgas.Rank) {
		items := []int{r.ID() * 10, r.ID()*10 + 1, r.ID()*10 + 2}
		got := Exchange(r, items, func(x int) int { return x }, func(int) int { return 8 })
		for _, x := range got {
			if x%p != r.ID() {
				t.Errorf("rank %d received foreign item %d", r.ID(), x)
			}
		}
		total := pgas.AllReduce(r, len(got), pgas.ReduceSum)
		if total != p*3 {
			t.Errorf("exchange lost items: %d of %d", total, p*3)
		}
	})
}

// TestExchangeNegativeOwner: a negative owner names rank owner mod P, taken
// in [0, P), and no item is lost.
func TestExchangeNegativeOwner(t *testing.T) {
	const p = 3
	m := pgas.NewMachine(pgas.Config{Ranks: p})
	m.Run(func(r *pgas.Rank) {
		items := []int{-1, -2, -3, 0, 1, 2}
		got := Exchange(r, items, func(x int) int { return x }, func(int) int { return 8 })
		for _, x := range got {
			if owner := (x%p + p) % p; owner != r.ID() {
				t.Errorf("rank %d got item %d (owner %d)", r.ID(), x, owner)
			}
		}
		total := pgas.AllReduce(r, len(got), pgas.ReduceSum)
		if total != p*len(items) {
			t.Errorf("exchange lost items: %d of %d", total, p*len(items))
		}
	})
}

// TestChargesPinnedP8 pins the traffic, footprint and simulated seconds of
// one pass through every charged Set operation at P=8, 4 ranks per node. The
// numbers were re-captured when IDs came to name their owner: Renumber lost
// its scan, its all-gather and a barrier, and the Reader sweep visits the
// same items in the same order (the k-th ID in ascending order). They were
// re-captured again when an exchange came to charge the one barrier it runs:
// the barrier count follows from the operations below, and the clock fell by
// the four charge-only barriers of the two exchanges (6e-5 s); no other
// figure moved. BarrierWaitNs was captured when it was added, with every
// other figure unchanged. Re-captured when New came to share its handle with
// pgas.Shared instead of a broadcast: the broadcast's binomial tree (7
// messages, 4 off-node, 56 bytes, 32 off-node, a 3.3096e-6 s critical path),
// its second barrier (1.5e-5 s, 8 barriers) and the 4016 ns its unequal hop
// charges waited went; no other figure moved.
func TestChargesPinnedP8(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 8, RanksPerNode: 4})
	res := m.Run(func(r *pgas.Rank) {
		local := append(buildRecs(r.ID(), 12), rec{Seq: "AAAA"}, rec{Seq: "CCG"}, rec{Seq: "TT"})
		s := New(r, local, recOwner, recWire, Distributed)
		s.SortLocal(r, recLess)
		s.DedupLocal(r, recEqual)
		s.FilterLocal(r, func(x rec) bool { return x.Seq != "TT" })
		s.Renumber(r, func(i, id int) { s.Local(r)[i].ID = id })
		ids := allIDs(s)
		rd := s.NewReader(r, 4)
		for rep := 0; rep < 2; rep++ {
			for k := r.ID(); k < len(ids); k += 5 {
				rd.Get(ids[k])
			}
		}
		Exchange(r, s.Local(r), func(x rec) int { return x.ID }, recWire)
		s.Emit(r)
		s.Release(r)
	})
	want := pgas.CommStats{
		ComputeOps: 825, Messages: 299, OffNodeMessages: 176,
		BytesSent: 3709, BytesReceived: 6828, OffNodeBytes: 4498,
		RemoteGets: 238, RemotePuts: 61,
		// Per rank: New's Shared (1), exchange (1) and barrier (1),
		// Renumber (1), Exchange (1), Emit (2) and Release (2). An exchange
		// counts one barrier.
		Barriers:  8 * (1 + 1 + 1 + 1 + 1 + 2 + 2),
		CacheHits: 32, CacheMisses: 238, PeakResidentBytes: 604,
		BarrierWaitNs: 323100,
	}
	if res.Stats != want {
		t.Errorf("stats moved:\n got %+v\nwant %+v", res.Stats, want)
	}
	if wantSim := 0.00023766460000000016; res.SimSeconds != wantSim {
		t.Errorf("simulated seconds moved: got %v, want %v", res.SimSeconds, wantSim)
	}
}

// TestReaderPrefetch: Prefetch fetches every remote ID a rank names, minus
// the ones it owns or has cached, with one get per distinct owner that
// carries exactly the bytes per-item Gets of the same IDs receive; a later
// Get of a prefetched ID charges no get; a capped cache takes only what fits
// and leaves the rest to per-item Gets; a reader without a cache is left as
// it was. The charges are the same at every worker count.
func TestReaderPrefetch(t *testing.T) {
	for _, p := range []int{1, 3, 16} {
		var first pgas.RunResult
		for _, workers := range []int{1, 4} {
			m := pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 2, Workers: workers})
			res := m.Run(func(r *pgas.Rank) { checkPrefetch(t, r) })
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if workers == 1 {
				first = res
			} else if res.Stats != first.Stats || res.SimSeconds != first.SimSeconds {
				t.Errorf("P=%d: Workers=%d charged %+v (%v s), Workers=1 %+v (%v s)", p, workers, res.Stats, res.SimSeconds, first.Stats, first.SimSeconds)
			}
		}
	}
}

// checkPrefetch runs TestReaderPrefetch's checks on one rank.
func checkPrefetch(t *testing.T, r *pgas.Rank) {
	p, me := r.NRanks(), r.ID()
	s := New(r, buildRecs(me, 5+me%4), func(x rec) int { return len(x.Seq) + me }, recWire, Distributed)
	s.Renumber(r, func(i, id int) { s.Local(r)[i].ID = id })
	all := allIDs(s)
	// A rank names every third item, some twice, in a rank-dependent order.
	rng := rand.New(rand.NewSource(int64(me)))
	var ids []int
	for k := me % 3; k < len(all); k += 3 {
		ids = append(ids, all[k])
		if rng.Intn(3) == 0 {
			ids = append(ids, all[k])
		}
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

	precached := -1 // a remote ID Get caches before the prefetch
	for _, id := range ids {
		if owner, _ := Locate(id); owner != me {
			precached = id
			break
		}
	}
	// remote holds the distinct remote IDs named, ascending; wantIDs is
	// what the prefetch must fetch, those not already cached, and owners
	// the ranks it must ask.
	var remote []int
	wantIDs := map[int]bool{}
	owners := map[int]bool{}
	for _, id := range ids {
		if owner, _ := Locate(id); owner != me {
			remote = append(remote, id)
			if id != precached {
				wantIDs[id] = true
				owners[owner] = true
			}
		}
	}
	slices.Sort(remote)
	remote = slices.Compact(remote)
	item := func(id int) rec { owner, idx := Locate(id); return s.shards[owner][idx] }

	// Per-item Gets of the same IDs, on a reader of its own.
	perItem := s.NewReader(r, 1<<10)
	if precached >= 0 {
		perItem.Get(precached)
	}
	before := r.Stats()
	for _, id := range remote {
		if wantIDs[id] {
			perItem.Get(id)
		}
	}
	perItemStats := diffStats(r.Stats(), before)

	rd := s.NewReader(r, 1<<10)
	if precached >= 0 {
		rd.Get(precached)
	}
	before = r.Stats()
	rd.Prefetch(ids)
	got := diffStats(r.Stats(), before)
	if got.RemoteGets != uint64(len(owners)) || got.Messages != uint64(len(owners)) {
		t.Errorf("P=%d rank %d: prefetch of %d remote items from %d owners charged %d gets, %d messages",
			p, me, len(wantIDs), len(owners), got.RemoteGets, got.Messages)
	}
	if got.CacheMisses != uint64(len(wantIDs)) {
		t.Errorf("P=%d rank %d: prefetch counted %d cache misses for %d items", p, me, got.CacheMisses, len(wantIDs))
	}
	if got.BytesReceived != perItemStats.BytesReceived || got.OffNodeBytes != perItemStats.OffNodeBytes {
		t.Errorf("P=%d rank %d: prefetch received %d bytes (%d off-node), per-item gets %d (%d)",
			p, me, got.BytesReceived, got.OffNodeBytes, perItemStats.BytesReceived, perItemStats.OffNodeBytes)
	}
	if got.ComputeOps != 0 || got.BytesSent != 0 || got.CacheHits != 0 {
		t.Errorf("P=%d rank %d: prefetch charged more than its gets: %+v", p, me, got)
	}
	before = r.Stats()
	for _, id := range ids {
		if x := rd.Get(id); x != item(id) {
			t.Errorf("P=%d rank %d: Get(%d) = %+v after prefetch, want %+v", p, me, id, x, item(id))
		}
	}
	if after := diffStats(r.Stats(), before); after.RemoteGets != 0 {
		t.Errorf("P=%d rank %d: Gets of prefetched IDs charged %d gets", p, me, after.RemoteGets)
	}
	// Everything named is cached or owned now: a second prefetch is free.
	before = r.Stats()
	rd.Prefetch(ids)
	if again := diffStats(r.Stats(), before); again != (pgas.CommStats{}) {
		t.Errorf("P=%d rank %d: prefetching cached IDs charged %+v", p, me, again)
	}

	// A cache of two entries takes the two lowest IDs; the others are
	// fetched by Get, one get each.
	const capped = 2
	small := s.NewReader(r, capped)
	small.Prefetch(ids)
	kept := remote[:min(capped, len(remote))]
	if !slices.Equal(slices.Sorted(maps.Keys(small.cache)), kept) {
		t.Errorf("P=%d rank %d: a %d-entry cache holds %v after prefetch, want %v", p, me, capped, slices.Sorted(maps.Keys(small.cache)), kept)
	}
	before = r.Stats()
	for _, id := range remote {
		small.Get(id)
	}
	if gets := diffStats(r.Stats(), before).RemoteGets; gets != uint64(len(remote)-len(kept)) {
		t.Errorf("P=%d rank %d: %d gets for the %d items the capped cache could not take", p, me, gets, len(remote)-len(kept))
	}

	// A reader without a cache ignores the prefetch and keeps its per-item
	// gets: one per remote occurrence.
	uncached := s.NewReader(r, 0)
	before = r.Stats()
	clock := r.Clock()
	uncached.Prefetch(ids)
	if r.Stats() != before || r.Clock() != clock || uncached.cache != nil {
		t.Errorf("P=%d rank %d: prefetch on a zero-entry reader charged %+v", p, me, diffStats(r.Stats(), before))
	}
	reads := 0
	for _, id := range ids {
		uncached.Get(id)
		if owner, _ := Locate(id); owner != me {
			reads++
		}
	}
	if gets := diffStats(r.Stats(), before).RemoteGets; gets != uint64(reads) {
		t.Errorf("P=%d rank %d: zero-entry reader charged %d gets for %d remote reads", p, me, gets, reads)
	}
	r.Barrier()
}

// diffStats returns the counters a rank charged between two snapshots
// (the peak-resident high-water mark is not a counter and is left out).
func diffStats(after, before pgas.CommStats) pgas.CommStats {
	return pgas.CommStats{
		ComputeOps:      after.ComputeOps - before.ComputeOps,
		Messages:        after.Messages - before.Messages,
		OffNodeMessages: after.OffNodeMessages - before.OffNodeMessages,
		BytesSent:       after.BytesSent - before.BytesSent,
		BytesReceived:   after.BytesReceived - before.BytesReceived,
		OffNodeBytes:    after.OffNodeBytes - before.OffNodeBytes,
		RemoteGets:      after.RemoteGets - before.RemoteGets,
		RemotePuts:      after.RemotePuts - before.RemotePuts,
		AtomicOps:       after.AtomicOps - before.AtomicOps,
		Barriers:        after.Barriers - before.Barriers,
		CacheHits:       after.CacheHits - before.CacheHits,
		CacheMisses:     after.CacheMisses - before.CacheMisses,
		BarrierWaitNs:   after.BarrierWaitNs - before.BarrierWaitNs,
	}
}
