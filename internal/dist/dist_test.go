package dist

import (
	"fmt"
	"math/rand"
	"reflect"
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

// TestChargesPinnedP8 pins the traffic, footprint and simulated seconds of
// one pass through every charged Set operation at P=8, 4 ranks per node. The
// numbers were re-captured when IDs came to name their owner: Renumber lost
// its scan, its all-gather and a barrier, and the Reader sweep visits the
// same items in the same order (the k-th ID in ascending order).
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
		ComputeOps: 825, Messages: 306, OffNodeMessages: 180,
		BytesSent: 3765, BytesReceived: 6884, OffNodeBytes: 4530,
		RemoteGets: 238, RemotePuts: 61, Barriers: 112,
		CacheHits: 32, CacheMisses: 238, PeakResidentBytes: 604,
	}
	if res.Stats != want {
		t.Errorf("stats moved:\n got %+v\nwant %+v", res.Stats, want)
	}
	if wantSim := 0.0003159742000000001; res.SimSeconds != wantSim {
		t.Errorf("simulated seconds moved: got %v, want %v", res.SimSeconds, wantSim)
	}
}
