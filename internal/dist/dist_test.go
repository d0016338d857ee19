package dist

import (
	"fmt"
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

// TestRenumberDenseAndLocatable: IDs are dense 0..N-1 in rank order, and
// RankOfID and an uncached Reader find every item.
func TestRenumberDenseAndLocatable(t *testing.T) {
	const p = 5 // non-power-of-two
	m := pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 2})
	m.Run(func(r *pgas.Rank) {
		s := New(r, buildRecs(r.ID(), 4+r.ID()), recOwner, recWire, Distributed)
		s.SortLocal(r, recLess)
		total := s.Renumber(r, func(i, id int) { s.Local(r)[i].ID = id })
		wantTotal := 0
		for i := 0; i < p; i++ {
			wantTotal += 4 + i
		}
		if total != wantTotal {
			t.Errorf("Renumber total = %d, want %d", total, wantTotal)
		}
		rd := s.NewReader(r, 0)
		for id := 0; id < total; id++ {
			item := rd.Get(id)
			if item.ID != id {
				t.Errorf("Get(%d) returned item with ID %d", id, item.ID)
			}
			if owner := s.RankOfID(id); owner < 0 || owner >= p {
				t.Errorf("RankOfID(%d) = %d out of range", id, owner)
			}
		}
	})
}

// TestReaderCachesRemoteGets: repeated remote fetches of the same ID hit the
// software cache; local fetches bypass it.
func TestReaderCachesRemoteGets(t *testing.T) {
	const p = 2
	m := pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 1})
	res := m.Run(func(r *pgas.Rank) {
		s := New(r, buildRecs(r.ID(), 6), recOwner, recWire, Distributed)
		s.Renumber(r, func(i, id int) { s.Local(r)[i].ID = id })
		total := s.GlobalLen(r)
		rd := s.NewReader(r, 1<<10)
		for rep := 0; rep < 3; rep++ {
			for id := 0; id < total; id++ {
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
// in rank order on rank 0 and nil elsewhere, and no rank — including the
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
				if item.ID != i {
					t.Errorf("emit order broken at %d: ID %d", i, item.ID)
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
// numbers were captured at ed1df1b, before the gather-to-all twin of each
// operation was deleted: the surviving bodies charge exactly what the
// distributed branches did.
func TestChargesPinnedP8(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 8, RanksPerNode: 4})
	res := m.Run(func(r *pgas.Rank) {
		local := append(buildRecs(r.ID(), 12), rec{Seq: "AAAA"}, rec{Seq: "CCG"}, rec{Seq: "TT"})
		s := New(r, local, recOwner, recWire, Distributed)
		s.SortLocal(r, recLess)
		s.DedupLocal(r, recEqual)
		s.FilterLocal(r, func(x rec) bool { return x.Seq != "TT" })
		total := s.Renumber(r, func(i, id int) { s.Local(r)[i].ID = id })
		rd := s.NewReader(r, 4)
		for rep := 0; rep < 2; rep++ {
			for id := r.ID(); id < total; id += 5 {
				rd.Get(id)
			}
		}
		Exchange(r, s.Local(r), func(x rec) int { return x.ID }, recWire)
		s.Emit(r)
		s.Release(r)
	})
	want := pgas.CommStats{
		ComputeOps: 825, Messages: 354, OffNodeMessages: 196,
		BytesSent: 4405, BytesReceived: 7524, OffNodeBytes: 4850,
		RemoteGets: 238, RemotePuts: 61, Barriers: 152,
		CacheHits: 32, CacheMisses: 238, PeakResidentBytes: 604,
	}
	if res.Stats != want {
		t.Errorf("stats moved:\n got %+v\nwant %+v", res.Stats, want)
	}
	if wantSim := 0.0003976141999999995; res.SimSeconds != wantSim {
		t.Errorf("simulated seconds moved: got %v, want %v", res.SimSeconds, wantSim)
	}
}
