package pgas

import (
	"testing"
)

// TestExScanSum pins ExScan semantics: rank i receives the sum of the values
// of ranks 0..i-1 and rank 0 receives the zero value, at both power-of-two
// and non-power-of-two rank counts.
func TestExScanSum(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		m := NewMachine(Config{Ranks: p, RanksPerNode: 2})
		m.Run(func(r *Rank) {
			// Rank i contributes i+1; the exclusive prefix is i*(i+1)/2.
			got := ExScan(r, r.ID()+1, ReduceSum)
			want := r.ID() * (r.ID() + 1) / 2
			if got != want {
				t.Errorf("P=%d rank %d: ExScan = %d, want %d", p, r.ID(), got, want)
			}
		})
	}
}

// TestExScanMax: the exclusive prefix under max, with the zero value on rank 0.
func TestExScanMax(t *testing.T) {
	m := NewMachine(Config{Ranks: 5})
	m.Run(func(r *Rank) {
		vals := []int64{7, 3, 9, 1, 5}
		got := ExScan(r, vals[r.ID()], ReduceMax)
		var want int64
		for i := 0; i < r.ID(); i++ {
			if i == 0 || vals[i] > want {
				want = vals[i]
			}
		}
		if got != want {
			t.Errorf("rank %d: ExScan max = %d, want %d", r.ID(), got, want)
		}
	})
}

// TestExScanChargedLikeAllReduce: the scan must cost exactly what an
// AllReduce of the same scalar costs (the log2 P tree) — every rank's offset
// for the price of one reduction, not of a P-word table.
func TestExScanChargedLikeAllReduce(t *testing.T) {
	const p = 16
	run := func(body func(r *Rank)) (float64, CommStats) {
		m := NewMachine(Config{Ranks: p, RanksPerNode: 4})
		res := m.Run(body)
		return res.SimSeconds, res.Stats
	}
	scanSim, scanStats := run(func(r *Rank) { ExScan(r, r.ID(), ReduceSum) })
	redSim, redStats := run(func(r *Rank) { AllReduce(r, r.ID(), ReduceSum) })
	if scanSim != redSim {
		t.Errorf("ExScan sim %v != AllReduce sim %v", scanSim, redSim)
	}
	if scanStats != redStats {
		t.Errorf("ExScan stats %+v != AllReduce stats %+v", scanStats, redStats)
	}
}

// TestExchangeFuncVariableSizes: variable-size items are delivered in source
// order and charged their actual payload bytes.
func TestExchangeFuncVariableSizes(t *testing.T) {
	const p = 4
	m := NewMachine(Config{Ranks: p, RanksPerNode: p})
	res := m.Run(func(r *Rank) {
		// Rank r sends d+1 strings of length r+1 to destination d.
		var items []string
		var dests []int
		for d := 0; d < p; d++ {
			for i := 0; i <= d; i++ {
				items = append(items, string(make([]byte, r.ID()+1)))
				dests = append(dests, d)
			}
		}
		in := ExchangeFunc(r, items, func(i int, _ string) int { return dests[i] },
			func(s string) int { return len(s) })
		if len(in) != p*(r.ID()+1) {
			t.Fatalf("rank %d: got %d items, want %d", r.ID(), len(in), p*(r.ID()+1))
		}
		for i, s := range in {
			if src := i / (r.ID() + 1); len(s) != src+1 {
				t.Errorf("rank %d: item %d (from %d) has len %d, want %d", r.ID(), i, src, len(s), src+1)
			}
		}
	})
	// Off-diagonal payload: rank r sends (d+1) strings of (r+1) bytes to each
	// d != r.
	var want uint64
	for r := 0; r < p; r++ {
		for d := 0; d < p; d++ {
			if d != r {
				want += uint64((d + 1) * (r + 1))
			}
		}
	}
	if res.Stats.BytesSent != want {
		t.Errorf("BytesSent = %d, want %d", res.Stats.BytesSent, want)
	}
	if res.Stats.BytesReceived != want {
		t.Errorf("BytesReceived = %d, want %d", res.Stats.BytesReceived, want)
	}
}

// TestResidentTracking: exchanges charge the payloads they materialize
// against the resident meter; releases lower the current level but never the
// peak; the run aggregate reports the worst rank's peak (max, not sum).
func TestResidentTracking(t *testing.T) {
	const p = 4
	m := NewMachine(Config{Ranks: p, RanksPerNode: p})
	res := m.Run(func(r *Rank) {
		// Rank 3 receives 100 one-byte items from every rank, its own
		// loop-back batch included; the other ranks receive nothing.
		ExchangeFunc(r, make([]byte, 100), func(int, byte) int { return p - 1 }, func(byte) int { return 1 })
		want := uint64(0)
		if r.ID() == p-1 {
			want = p * 100
		}
		if got := r.Resident(); got != want {
			t.Errorf("rank %d: resident after the skewed exchange = %d, want %d", r.ID(), got, want)
		}
		r.ReleaseResident(int(want))
		if got := r.Resident(); got != 0 {
			t.Errorf("rank %d: resident after release = %d, want 0", r.ID(), got)
		}
		// An exchange only materializes what the rank actually receives: 10
		// one-byte items from each rank, its own loop-back batch included.
		ExchangeFunc(r, make([]byte, p*10), func(i int, _ byte) int { return i / 10 }, func(byte) int { return 1 })
		if got := r.Resident(); got != p*10 {
			t.Errorf("rank %d: resident after exchange = %d, want %d", r.ID(), got, p*10)
		}
		// Over-release clamps at zero instead of underflowing.
		r.ReleaseResident(1 << 30)
		if got := r.Resident(); got != 0 {
			t.Errorf("rank %d: clamped release left %d", r.ID(), got)
		}
	})
	if res.Stats.PeakResidentBytes != p*100 {
		t.Errorf("aggregate peak = %d, want %d (max over ranks, not sum)", res.Stats.PeakResidentBytes, p*100)
	}
}

// TestWireSizeOf pins the reflective lower bound used by the wire-size
// regression tests.
func TestWireSizeOf(t *testing.T) {
	type inner struct {
		A int
		B bool
	}
	type outer struct {
		ID    string
		Seq   []byte
		Pos   int32
		Sub   inner
		Items []inner
	}
	v := outer{
		ID:    "abcd",        // 4
		Seq:   []byte("ACG"), // 3
		Pos:   7,             // 4
		Sub:   inner{},       // 8 + 1
		Items: []inner{{}, {}},
	}
	want := 4 + 3 + 4 + 9 + 2*9
	if got := WireSizeOf(v); got != want {
		t.Errorf("WireSizeOf = %d, want %d", got, want)
	}
	if got := WireSizeOf(nil); got != 0 {
		t.Errorf("WireSizeOf(nil) = %d, want 0", got)
	}
	if got := WireSizeOf(map[string]int{"ab": 1}); got != 10 {
		t.Errorf("WireSizeOf(map) = %d, want 10", got)
	}
}
