package pgas

import (
	"math"
	"testing"
)

// TestAllReduceInt64Exact is the regression test for the int64 reduction:
// the old implementation reduced through float64 and lost everything below
// bit 53 (and overflowed converting back near MaxInt64).
func TestAllReduceInt64Exact(t *testing.T) {
	const p = 8
	m := NewMachine(Config{Ranks: p, RanksPerNode: 4})
	m.Run(func(r *Rank) {
		// Max of MaxInt64-1 must round-trip exactly: float64(MaxInt64-1)
		// rounds up to 2^63, which overflows the conversion back.
		big := int64(math.MaxInt64) - 1
		if got := AllReduce(r, big, ReduceMax); got != big {
			t.Errorf("rank %d: max(MaxInt64-1) = %d, want %d", r.ID(), got, big)
		}
		// Sums above 2^53 must keep their low bits: each rank contributes
		// 2^53+ID, and the +ID tail is exactly what float64 would drop.
		x := int64(1)<<53 + int64(r.ID())
		want := int64(p)*(1<<53) + p*(p-1)/2
		if got := AllReduce(r, x, ReduceSum); got != want {
			t.Errorf("rank %d: sum = %d, want %d", r.ID(), got, want)
		}
		// Min across the full negative range.
		if got := AllReduce(r, int64(math.MinInt64)+int64(r.ID()), ReduceMin); got != math.MinInt64 {
			t.Errorf("rank %d: min = %d, want MinInt64", r.ID(), got)
		}
	})
}

// TestAllReduceTyped exercises the generic family on types that previously
// had no exact path.
func TestAllReduceTyped(t *testing.T) {
	m := NewMachine(Config{Ranks: 5})
	m.Run(func(r *Rank) {
		if got := AllReduce(r, r.ID()+1, ReduceSum); got != 15 {
			t.Errorf("int sum = %d, want 15", got)
		}
		if got := AllReduce(r, uint64(r.ID()), ReduceMax); got != 4 {
			t.Errorf("uint64 max = %d, want 4", got)
		}
		if got := AllReduce(r, float64(r.ID())/2, ReduceMax); got != 2 {
			t.Errorf("float64 max = %v, want 2", got)
		}
	})
}

// TestGatherVPayloadAndCost checks GatherV's data movement and that its
// simulated cost scales with the actual payload size (the flat-16-byte
// charging bug made a gather of a million alignments cost the same as a
// gather of eight integers).
func TestGatherVPayloadAndCost(t *testing.T) {
	const p = 8
	run := func(itemsPerRank, bytesPerItem int) float64 {
		m := NewMachine(Config{Ranks: p, RanksPerNode: 4})
		res := m.Run(func(r *Rank) {
			items := make([]int, itemsPerRank*(r.ID()+1))
			for i := range items {
				items[i] = r.ID()*1_000_000 + i
			}
			all := GatherV(r, items, bytesPerItem)
			if len(all) != p {
				t.Errorf("GatherV returned %d slices, want %d", len(all), p)
			}
			for src, batch := range all {
				if len(batch) != itemsPerRank*(src+1) {
					t.Errorf("rank %d: from %d got %d items, want %d",
						r.ID(), src, len(batch), itemsPerRank*(src+1))
					continue
				}
				for i, v := range batch {
					if v != src*1_000_000+i {
						t.Errorf("rank %d: wrong item from %d at %d: %d", r.ID(), src, i, v)
						break
					}
				}
			}
		})
		return res.SimSeconds
	}
	small := run(10, 64)
	large := run(10_000, 64)
	if large <= small*10 {
		t.Errorf("GatherV cost must scale with payload: 10 items/rank = %v s, 10k items/rank = %v s", small, large)
	}
}

// TestGatherVEmptyRanks: ranks contributing nothing must work and pay no
// bandwidth for their empty block.
func TestGatherVEmptyRanks(t *testing.T) {
	m := NewMachine(Config{Ranks: 4})
	m.Run(func(r *Rank) {
		var items []string
		if r.ID() == 2 {
			items = []string{"only"}
		}
		all := GatherVFunc(r, items, func(s string) int { return len(s) })
		for src, batch := range all {
			want := 0
			if src == 2 {
				want = 1
			}
			if len(batch) != want {
				t.Errorf("rank %d: from %d got %d items, want %d", r.ID(), src, len(batch), want)
			}
		}
	})
}

// TestGatherVNonPow2Accounting: on a non-power-of-two machine, ranks whose
// hypercube partner does not exist must still be charged (as receive-only
// fold-in hops) for the blocks they obtain, so every delivered byte is
// accounted. Each rank ends up holding everyone else's payload, so the
// aggregate BytesReceived is exactly (P-1) x the total payload.
func TestGatherVNonPow2Accounting(t *testing.T) {
	const p = 5
	m := NewMachine(Config{Ranks: p})
	res := m.Run(func(r *Rank) {
		items := make([]byte, (r.ID()+1)*10)
		GatherV(r, items, 1)
	})
	totalPayload := uint64(0)
	for i := 0; i < p; i++ {
		totalPayload += uint64((i + 1) * 10)
	}
	if want := (p - 1) * totalPayload; res.Stats.BytesReceived != want {
		t.Errorf("BytesReceived = %d, want %d (every rank receives all other payloads)",
			res.Stats.BytesReceived, want)
	}
	if res.Stats.BytesSent >= res.Stats.BytesReceived {
		t.Errorf("fold-in hops have no sender side, so sent (%d) should be < received (%d)",
			res.Stats.BytesSent, res.Stats.BytesReceived)
	}
}

// TestCollectivesNodeAware: the same collective sequence on one big node
// must be cheaper than spread over one-rank nodes, because the tree's early
// rounds stay on-node.
func TestCollectivesNodeAware(t *testing.T) {
	const p = 16
	run := func(rpn int) float64 {
		m := NewMachine(Config{Ranks: p, RanksPerNode: rpn})
		res := m.Run(func(r *Rank) {
			items := make([]byte, 4096)
			GatherV(r, items, 1)
			AllReduce(r, int64(r.ID()), ReduceSum)
			Broadcast(r, r.ID())
		})
		return res.SimSeconds
	}
	oneNode := run(p)
	allOff := run(1)
	if oneNode >= allOff {
		t.Errorf("single-node collectives (%v s) should be cheaper than all-off-node (%v s)", oneNode, allOff)
	}
	half := run(p / 2)
	if !(oneNode < half && half < allOff) {
		t.Errorf("cost should increase as ranks spread over nodes: %v, %v, %v", oneNode, half, allOff)
	}
}

// TestBroadcastUsesRankZeroValue pins Broadcast semantics: only rank 0's
// contribution is delivered, and the binomial tree sends exactly P-1
// messages in total.
func TestBroadcastUsesRankZeroValue(t *testing.T) {
	const p = 7 // non-power-of-two exercises the clipped tree
	m := NewMachine(Config{Ranks: p, RanksPerNode: 4})
	res := m.Run(func(r *Rank) {
		got := Broadcast(r, 100+r.ID())
		if got != 100 {
			t.Errorf("rank %d: broadcast = %d, want 100", r.ID(), got)
		}
	})
	if res.Stats.Messages != p-1 {
		t.Errorf("broadcast sent %d messages, want %d", res.Stats.Messages, p-1)
	}
	if res.Stats.BytesReceived != uint64((p-1)*scalarBytes) {
		t.Errorf("BytesReceived = %d, want %d", res.Stats.BytesReceived, (p-1)*scalarBytes)
	}
}

// TestZeroCostModel: with CostSet, an explicitly zero cost model must charge
// nothing — the free-communication ablation that isolates algorithmic work
// from communication cost.
func TestZeroCostModel(t *testing.T) {
	m := NewMachine(Config{Ranks: 4, RanksPerNode: 2, CostSet: true})
	if m.cfg.Cost != (CostModel{}) {
		t.Fatalf("CostSet machine should keep the zero model, got %+v", m.cfg.Cost)
	}
	h := m.NewAtomic(0)
	res := m.Run(func(r *Rank) {
		r.ChargeSend(3, 1<<20, 5)
		r.ChargeGet(3, 1<<20, 5)
		r.AtomicFetchAdd(h, 1)
		GatherV(r, make([]int, 1000), 8)
		AllReduce(r, int64(r.ID()), ReduceSum)
		Broadcast(r, r.ID())
		r.Barrier()
	})
	if res.SimSeconds != 0 {
		t.Errorf("zero cost model charged %v simulated seconds, want exactly 0", res.SimSeconds)
	}
	if res.Stats.Messages == 0 {
		t.Error("stats must still be counted under the zero cost model")
	}
	// Without CostSet the zero model still means "defaults".
	if NewMachine(Config{Ranks: 2}).cfg.Cost == (CostModel{}) {
		t.Error("zero Cost without CostSet should select DefaultCostModel")
	}
}

// TestCollectivesGolden pins the exact simulated cost and communication
// statistics of a fixed collective sequence at P=8, RanksPerNode=4, under
// the default cost model. Any change to the cost model or the tree schedules
// shows up here as an explicit diff — update the constants deliberately.
//
// The sequence (per rank): one scalar Gather, one GatherV of (ID+1)*10
// 100-byte items, one int64 AllReduce, one Broadcast, one ExchangeFunc of 2
// 24-byte items per destination.
func TestCollectivesGolden(t *testing.T) {
	m := NewMachine(Config{Ranks: 8, RanksPerNode: 4})
	res := m.Run(func(r *Rank) {
		Gather(r, r.ID())
		items := make([]int, (r.ID()+1)*10)
		GatherV(r, items, 100)
		AllReduce(r, int64(r.ID()), ReduceSum)
		Broadcast(r, r.ID())
		var pairs []int
		for d := 0; d < r.NRanks(); d++ {
			pairs = append(pairs, r.ID(), d)
		}
		ExchangeFunc(r, pairs, func(i int, _ int) int { return i / 2 }, func(int) int { return 24 })
	})

	t.Logf("SimSeconds=%.17g Stats=%+v", res.SimSeconds, res.Stats)

	// Simulated seconds: every charge is a deterministic float64 expression
	// and barriers reduce by max, so the result is bit-exact run to run.
	const wantSim = 0.000215032
	if math.Abs(res.SimSeconds-wantSim) > wantSim*1e-9 {
		t.Errorf("SimSeconds = %.17g, want %v", res.SimSeconds, wantSim)
	}
	want := CommStats{
		Messages:          135,    // 3 tree rounds x 8 ranks x 3 all-gather-style collectives + 7 broadcast + 56 exchange
		OffNodeMessages:   60,     // 1 off-node round per rank per tree collective + 4 broadcast hops + 32 exchange
		BytesSent:         255384, // dominated by the GatherV forwarding of 36000 payload bytes
		BytesReceived:     255384, // every sent byte is received by its partner
		OffNodeBytes:      145888,
		RemotePuts:        56,    // ExchangeFunc charges per-destination batches as puts
		Barriers:          88,    // 2 per tree collective x 4 + 3 for ExchangeFunc, x 8 ranks
		PeakResidentBytes: 36384, // 36000 GatherV payload + 8x48 exchange batches materialized
	}
	got := res.Stats
	got.ComputeOps = 0 // no compute charged in this sequence; keep the comparison total
	if got != want {
		t.Errorf("CommStats mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// BenchmarkCollectiveTreeVsFlat compares the simulated cost of the
// log2(P)-round tree all-reduce against the centralized flat model it
// replaced (P-1 serialized messages into rank 0, then a broadcast back) at
// P=64. The reported metrics are simulated seconds per collective; the
// speedup is the scaling argument for tree collectives in one number.
func BenchmarkCollectiveTreeVsFlat(b *testing.B) {
	const p = 64
	const reps = 100
	m := NewMachine(Config{Ranks: p, RanksPerNode: 8})
	var treeSim float64
	for b.Loop() {
		res := m.Run(func(r *Rank) {
			for j := 0; j < reps; j++ {
				AllReduce(r, int64(r.ID()), ReduceSum)
			}
		})
		treeSim = res.SimSeconds
	}
	c := m.cfg.Cost
	// Flat centralized model: rank 0 ingests P-1 off-node words serially,
	// then sends P-1 replies (ignoring the two barriers both models pay).
	perMsg := c.LatencyOffNode + scalarBytes*c.ByteOffNode
	flatSim := float64(reps) * 2 * float64(p-1) * perMsg
	b.ReportMetric(treeSim/reps, "tree_sim_s/op")
	b.ReportMetric(flatSim/reps, "flat_sim_s/op")
	b.ReportMetric(flatSim/treeSim, "flat_over_tree_x")
}
