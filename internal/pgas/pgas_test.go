package pgas

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestConfigDefaults(t *testing.T) {
	m := NewMachine(Config{})
	if m.Ranks() != 1 || m.cfg.RanksPerNode != 1 {
		t.Errorf("default machine should have 1 rank on 1 node, got %d ranks, %d per node", m.Ranks(), m.cfg.RanksPerNode)
	}
	m = NewMachine(Config{Ranks: 8, RanksPerNode: 4})
	if m.Ranks() != 8 || m.cfg.RanksPerNode != 4 {
		t.Errorf("machine shape wrong: %d ranks, %d per node", m.Ranks(), m.cfg.RanksPerNode)
	}
	if m.NodeOf(0) != 0 || m.NodeOf(3) != 0 || m.NodeOf(4) != 1 || m.NodeOf(7) != 1 {
		t.Error("NodeOf mapping wrong")
	}
	if m.cfg.Cost == (CostModel{}) {
		t.Error("cost model should default to non-zero")
	}
}

func TestRunExecutesEveryRank(t *testing.T) {
	m := NewMachine(Config{Ranks: 7, RanksPerNode: 2})
	var seen [7]int32
	res := m.Run(func(r *Rank) {
		atomic.AddInt32(&seen[r.ID()], 1)
		if r.NRanks() != 7 {
			t.Errorf("NRanks = %d", r.NRanks())
		}
		if last := r.Machine().NodeOf(r.NRanks() - 1); last != 3 {
			t.Errorf("last rank on node %d, want 3 (four nodes)", last)
		}
		r.Compute(100)
	})
	for i, c := range seen {
		if c != 1 {
			t.Errorf("rank %d ran %d times", i, c)
		}
	}
	if res.SimSeconds <= 0 {
		t.Error("simulated time should be positive after compute")
	}
	if res.Stats.ComputeOps != 700 {
		t.Errorf("ComputeOps = %v, want 700", res.Stats.ComputeOps)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	m := NewMachine(Config{Ranks: 4})
	var clocks [4]float64
	m.Run(func(r *Rank) {
		// Each rank performs a different amount of work before the barrier.
		r.Compute(float64(1000 * (r.ID() + 1)))
		r.Barrier()
		clocks[r.ID()] = r.Clock()
	})
	for i := 1; i < 4; i++ {
		if clocks[i] != clocks[0] {
			t.Errorf("clock of rank %d = %v, rank 0 = %v; barrier must equalize", i, clocks[i], clocks[0])
		}
	}
	// The synchronized clock must be at least the cost of the largest work.
	minExpected := 4000 * m.cfg.Cost.ComputePerOp
	if clocks[0] < minExpected {
		t.Errorf("synchronized clock %v < slowest rank %v", clocks[0], minExpected)
	}
}

func TestBarrierReusable(t *testing.T) {
	m := NewMachine(Config{Ranks: 8})
	const rounds = 50
	var mu sync.Mutex
	order := make(map[int]int)
	m.Run(func(r *Rank) {
		for i := 0; i < rounds; i++ {
			r.Barrier()
			mu.Lock()
			order[i]++
			mu.Unlock()
			r.Barrier()
			mu.Lock()
			if order[i] != 8 {
				t.Errorf("round %d: only %d ranks passed the first barrier", i, order[i])
			}
			mu.Unlock()
		}
	})
}

func TestChargeSendOnVsOffNode(t *testing.T) {
	m := NewMachine(Config{Ranks: 4, RanksPerNode: 2})
	var onNode, offNode float64
	m.Run(func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		before := r.Clock()
		r.ChargeSend(1, 1000, 1) // rank 1 shares node 0
		onNode = r.Clock() - before
		before = r.Clock()
		r.ChargeSend(3, 1000, 1) // rank 3 is on node 1
		offNode = r.Clock() - before
		if !r.SameNode(1) || r.SameNode(3) {
			t.Error("SameNode classification wrong")
		}
	})
	if offNode <= onNode {
		t.Errorf("off-node send (%v) should cost more than on-node (%v)", offNode, onNode)
	}
}

func TestChargeGetAndCacheStats(t *testing.T) {
	m := NewMachine(Config{Ranks: 2, RanksPerNode: 1})
	res := m.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.ChargeGet(1, 64, 1)
			r.ChargeCacheHit()
			r.ChargeCacheMiss(1, 64, 1)
			r.ChargeCacheMiss(1, 192, 3)
		}
	})
	if res.Stats.RemoteGets != 3 {
		t.Errorf("RemoteGets = %d, want 3 (one get + two cache-miss gets)", res.Stats.RemoteGets)
	}
	if res.Stats.CacheHits != 1 || res.Stats.CacheMisses != 4 {
		t.Errorf("cache stats = %d/%d, want 1/4 (a vectored get counts every item it fetched)", res.Stats.CacheHits, res.Stats.CacheMisses)
	}
	if res.Stats.BytesReceived != 64+64+192 {
		t.Errorf("BytesReceived = %d, want %d", res.Stats.BytesReceived, 64+64+192)
	}
	if res.Stats.OffNodeMessages != 3 {
		t.Errorf("OffNodeMessages = %d, want 3", res.Stats.OffNodeMessages)
	}
}

func TestAtomicFetchAdd(t *testing.T) {
	m := NewMachine(Config{Ranks: 8})
	h := m.NewAtomic(0)
	var claimed sync.Map
	m.Run(func(r *Rank) {
		for {
			v := r.AtomicFetchAdd(h, 1)
			if v >= 100 {
				break
			}
			if _, dup := claimed.LoadOrStore(v, r.ID()); dup {
				t.Errorf("value %d claimed twice", v)
			}
		}
	})
	count := 0
	claimed.Range(func(_, _ any) bool { count++; return true })
	if count != 100 {
		t.Errorf("claimed %d distinct values, want 100", count)
	}
	m.Run(func(r *Rank) {
		if r.ID() == 0 {
			if v := r.AtomicFetchAdd(h, 0); v < 100 {
				t.Errorf("counter = %d, want >= 100", v)
			}
		}
	})
}

func TestAllReduce(t *testing.T) {
	m := NewMachine(Config{Ranks: 5})
	m.Run(func(r *Rank) {
		sum := AllReduce(r, float64(r.ID()+1), ReduceSum)
		if sum != 15 {
			t.Errorf("rank %d: sum = %v, want 15", r.ID(), sum)
		}
		max := AllReduce(r, float64(r.ID()), ReduceMax)
		if max != 4 {
			t.Errorf("rank %d: max = %v, want 4", r.ID(), max)
		}
		minV := AllReduce(r, int64(r.ID()+10), ReduceMin)
		if minV != 10 {
			t.Errorf("rank %d: min = %v, want 10", r.ID(), minV)
		}
	})
}

// TestExchangeFunc: every item reaches the rank destOf names, and a rank's
// inbound items arrive in ascending source-rank order with each source's
// items in that source's original order — even when the sender interleaves
// its destinations.
func TestExchangeFunc(t *testing.T) {
	const p = 6
	type msg struct{ dest, val int }
	m := NewMachine(Config{Ranks: p, RanksPerNode: 3})
	m.Run(func(r *Rank) {
		// Rank s sends d+1 items to rank d, item i carrying s*100+d*10+i,
		// emitted round-robin over the destinations.
		var items []msg
		for i := 0; i < p; i++ {
			for d := i; d < p; d++ {
				items = append(items, msg{dest: d, val: r.ID()*100 + d*10 + i})
			}
		}
		in := ExchangeFunc(r, items, func(_ int, it msg) int { return it.dest }, func(msg) int { return 8 })
		var want []msg
		for s := 0; s < p; s++ {
			for i := 0; i <= r.ID(); i++ {
				want = append(want, msg{dest: r.ID(), val: s*100 + r.ID()*10 + i})
			}
		}
		if !slices.Equal(in, want) {
			t.Errorf("rank %d: received %v, want %v", r.ID(), in, want)
		}
	})
}

// TestExchangeFuncTwoByteDestinations routes to destinations on both sides of
// 256, where grouping takes two radix passes (the 42 items per rank are past
// radixMinKeys; TestExchangeFunc's 21 take the comparison sort): every
// receiver must still see ascending sources and, within a source, the
// sender's original order.
func TestExchangeFuncTwoByteDestinations(t *testing.T) {
	const p, perDest = 300, 6
	dests := []int{299, 0, 256, 255, 1, 257, 44}
	type msg struct{ src, dest, seq int }
	m := NewMachine(Config{Ranks: p, RanksPerNode: 4})
	m.Run(func(r *Rank) {
		// Round-robin over the destinations, so each one's items interleave
		// with all the others' in the input.
		var items []msg
		for i := 0; i < perDest; i++ {
			for _, d := range dests {
				items = append(items, msg{src: r.ID(), dest: d, seq: i})
			}
		}
		in := ExchangeFunc(r, items, func(_ int, it msg) int { return it.dest }, func(msg) int { return 8 })
		var want []msg
		if slices.Contains(dests, r.ID()) {
			for s := 0; s < p; s++ {
				for i := 0; i < perDest; i++ {
					want = append(want, msg{src: s, dest: r.ID(), seq: i})
				}
			}
		}
		if !slices.Equal(in, want) {
			t.Errorf("rank %d: received %d items out of order or misrouted", r.ID(), len(in))
		}
	})
}

// TestExchangeFuncReusesScratch: the destination grouping works in per-rank
// key buffers that a steady-state round neither reallocates nor re-sizes, and
// the published copies are reused by the exchange after next, so all an
// exchange allocates is the merged result: nothing per item, nothing per
// destination.
func TestExchangeFuncReusesScratch(t *testing.T) {
	const p, n = 8, 512
	items := make([]int, n)
	round := func(r *Rank) {
		ExchangeFunc(r, items, func(i int, _ int) int { return r.ID() + i }, func(int) int { return 8 })
	}
	NewMachine(Config{Ranks: p}).Run(func(r *Rank) {
		round(r)
		keys, tmp := &r.exchKeys[:1][0], &r.exchTmp[:1][0]
		for i := 0; i < 6; i++ {
			round(r)
		}
		// The one radix pass of a round swaps the two buffers; an even number
		// of rounds swaps them back.
		if &r.exchKeys[:1][0] != keys || &r.exchTmp[:1][0] != tmp || cap(r.exchKeys) < n {
			t.Errorf("rank %d: exchange key scratch was reallocated", r.ID())
		}
	})
	// With one rank nothing else allocates concurrently, so the count is exact.
	NewMachine(Config{Ranks: 1}).Run(func(r *Rank) {
		round(r)
		round(r)
		if got := testing.AllocsPerRun(20, func() { round(r) }); got > 2 {
			t.Errorf("steady-state exchange round: %v allocations, want at most 2", got)
		}
	})
}

// TestExchangeFuncReleasesPublishedItems: what a rank published for one
// exchange is zeroed once its next exchange passes the barrier, so an
// exchange of pointers does not keep them reachable.
func TestExchangeFuncReleasesPublishedItems(t *testing.T) {
	NewMachine(Config{Ranks: 3}).Run(func(r *Rank) {
		items := []*int{new(int), new(int)}
		ExchangeFunc(r, items, func(i int, _ *int) int { return r.ID() + i }, func(*int) int { return 8 })
		first := r.machine.outboxes[r.ID()][0].(*exchOutbox[*int])
		published := first.items[:cap(first.items)]
		ExchangeFunc(r, []int{r.ID()}, func(int, int) int { return 0 }, func(int) int { return 8 })
		if len(first.items) != 0 || slices.ContainsFunc(published, func(p *int) bool { return p != nil }) {
			t.Errorf("rank %d: first exchange's published items still held: %v", r.ID(), published)
		}
	})
}

func TestExchangeFuncRepeated(t *testing.T) {
	// Repeated exchanges must not leak data between rounds. The destination
	// is left unreduced: rank p-1's r.ID()+1 wraps to rank 0.
	const p = 4
	m := NewMachine(Config{Ranks: p})
	m.Run(func(r *Rank) {
		for round := 0; round < 10; round++ {
			in := ExchangeFunc(r, []int{round*1000 + r.ID()},
				func(int, int) int { return r.ID() + 1 }, func(int) int { return 8 })
			src := (r.ID() + p - 1) % p
			if len(in) != 1 || in[0] != round*1000+src {
				t.Errorf("round %d rank %d: received %v, want exactly rank %d's item", round, r.ID(), in, src)
			}
		}
	})
}

// TestExchangeFuncOneHostBarrier: an exchange counts, prices and runs one
// barrier, so a rank leaves it while others may still be copying what it
// published, and the buffers alternate by exchange parity. Back-to-back
// exchanges whose caller truncates, refills and then scribbles over one items
// slice, interleaved with AllReduce and ExScan, must each deliver exactly
// that round's items in source order; clocks and counts must not depend on
// Workers. Only barriers are priced (at one second each), so the clock counts
// the barriers each rank paid for: one per exchange, none for the
// collectives. The machine's barrier epochs count the ones the host ran: the
// exchanges' and two per collective. Run it under -race: a receiver reading a
// buffer its sender has moved on to reuse is a data race.
func TestExchangeFuncOneHostBarrier(t *testing.T) {
	type msg struct{ round, src, dest, seq int }
	const rounds = 12
	for _, p := range []int{3, 64} {
		var first RunResult
		for _, workers := range []int{1, 4} {
			m := NewMachine(Config{Ranks: p, RanksPerNode: 2, Workers: workers, Cost: CostModel{BarrierCost: 1}, CostSet: true})
			dest := func(round, src, seq int) int { return (src + round + 7*seq) % p }
			collectives := 0
			res := m.Run(func(r *Rank) {
				var items []msg
				for round := 0; round < rounds; round++ {
					items = items[:0]
					for seq := 0; seq <= round%3; seq++ {
						items = append(items, msg{round, r.ID(), dest(round, r.ID(), seq), seq})
					}
					in := ExchangeFunc(r, items, func(_ int, it msg) int { return it.dest }, func(msg) int { return 8 })
					for i := range items {
						items[i] = msg{-1, -1, -1, -1}
					}
					var want []msg
					for src := 0; src < p; src++ {
						for seq := 0; seq <= round%3; seq++ {
							if d := dest(round, src, seq); d == r.ID() {
								want = append(want, msg{round, src, d, seq})
							}
						}
					}
					if !slices.Equal(in, want) {
						t.Errorf("P=%d workers=%d round %d rank %d: received %v, want %v", p, workers, round, r.ID(), in, want)
					}
					r.ReleaseResident(8 * len(in))
					switch round % 3 {
					case 0:
						if got := AllReduce(r, round, ReduceMax); got != round {
							t.Errorf("rank %d: AllReduce after round %d = %d", r.ID(), round, got)
						}
					case 1:
						if got, want := ExScan(r, round, ReduceSum), round*r.ID(); got != want {
							t.Errorf("rank %d: ExScan after round %d = %d, want %d", r.ID(), round, got, want)
						}
					}
					if r.ID() == 0 && round%3 != 2 {
						collectives++
					}
				}
			})
			// Counted and priced: one barrier per exchange. Run on the host:
			// those and two per AllReduce or ExScan.
			exchanges := rounds
			if want := uint64(p * exchanges); res.Stats.Barriers != want {
				t.Errorf("P=%d workers=%d: %d barriers counted, want %d (one per exchange)", p, workers, res.Stats.Barriers, want)
			}
			if res.SimSeconds != float64(exchanges) {
				t.Errorf("P=%d workers=%d: %v barrier-seconds priced, want %d (one per exchange)", p, workers, res.SimSeconds, exchanges)
			}
			host := exchanges + 2*collectives
			// The last epoch is the round in which every rank returned.
			if ran := int(m.barrier.epoch) - 1; ran != host || res.HostBarriers != uint64(host) {
				t.Errorf("P=%d workers=%d: %d barriers run, rank 0 arrived at %d, want %d (one per exchange, two per collective)", p, workers, ran, res.HostBarriers, host)
			}
			res.Wall = 0
			if workers == 1 {
				first = res
			} else if res != first {
				t.Errorf("P=%d: Workers=%d gives %+v, Workers=1 %+v", p, workers, res, first)
			}
		}
	}
}

// TestBarrierStats: BarrierStats returns, on every rank, the sum of every
// rank's statistics at that barrier, its own arrivals included, and moves
// clocks and counts exactly as Barrier does.
func TestBarrierStats(t *testing.T) {
	const p = 7
	work := func(r *Rank) {
		r.Compute(float64(100 * r.ID()))
		r.ChargeSend((r.ID()+1)%p, 10*r.ID(), 1)
	}
	for _, workers := range []int{1, 3} {
		cfg := Config{Ranks: p, RanksPerNode: 2, Workers: workers}
		var got [p]CommStats
		res := NewMachine(cfg).Run(func(r *Rank) {
			work(r)
			got[r.ID()] = r.BarrierStats()
		})
		ref := NewMachine(cfg).Run(func(r *Rank) {
			work(r)
			r.Barrier()
		})
		for rank, s := range got {
			if s != res.Stats {
				t.Errorf("workers=%d rank %d: BarrierStats = %+v, want the run's total %+v", workers, rank, s, res.Stats)
			}
		}
		res.Wall, ref.Wall = 0, 0
		if res != ref {
			t.Errorf("workers=%d: with BarrierStats %+v, with Barrier %+v", workers, res, ref)
		}
	}
}

func TestBlockRange(t *testing.T) {
	cases := []struct {
		n, p int
	}{{10, 3}, {7, 7}, {3, 8}, {0, 4}, {100, 1}, {16, 4}}
	for _, c := range cases {
		covered := 0
		prevHi := 0
		for rank := 0; rank < c.p; rank++ {
			lo, hi := BlockRange(c.n, c.p, rank)
			if lo != prevHi {
				t.Errorf("n=%d p=%d rank=%d: lo=%d, want %d (contiguous)", c.n, c.p, rank, lo, prevHi)
			}
			if hi < lo {
				t.Errorf("n=%d p=%d rank=%d: hi < lo", c.n, c.p, rank)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != c.n {
			t.Errorf("n=%d p=%d: covered %d items", c.n, c.p, covered)
		}
	}
}

func TestBlockRangeProperty(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw) % 5000
		p := int(pRaw)%64 + 1
		total := 0
		for rank := 0; rank < p; rank++ {
			lo, hi := BlockRange(n, p, rank)
			if hi < lo || lo < 0 || hi > n {
				return false
			}
			// Block sizes differ by at most one.
			if hi-lo > n/p+1 {
				return false
			}
			total += hi - lo
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSimulatedTimeScalesWithRanks(t *testing.T) {
	// The same total work divided over more ranks should take less simulated
	// time (this is the foundation of the scaling experiments).
	totalWork := 1_000_000.0
	run := func(p int) float64 {
		m := NewMachine(Config{Ranks: p, RanksPerNode: 4})
		res := m.Run(func(r *Rank) {
			r.Compute(totalWork / float64(p))
			r.Barrier()
		})
		return res.SimSeconds
	}
	t1, t4, t16 := run(1), run(4), run(16)
	if !(t1 > t4 && t4 > t16) {
		t.Errorf("simulated time should decrease with ranks: %v, %v, %v", t1, t4, t16)
	}
	if t1/t16 < 8 {
		t.Errorf("16-way speedup of pure compute should be near 16, got %v", t1/t16)
	}
}

func TestAbortOnCancelAbortsRun(t *testing.T) {
	// A cancelled context must abort the machine: every rank unwinds at its
	// next barrier and Run reports ErrAborted joined with the context cause.
	cause := errors.New("tenant hung up")
	ctx, cancel := context.WithCancelCause(context.Background())
	m := NewMachine(Config{Ranks: 4, RanksPerNode: 2})
	stop := m.AbortOnCancel(ctx)
	defer stop()
	started := make(chan struct{})
	var once sync.Once
	go func() {
		<-started
		cancel(cause)
	}()
	res := m.Run(func(r *Rank) {
		// Barrier loop: runs until the abort poisons the barrier. The first
		// completed barrier releases the canceller.
		for {
			r.Compute(100)
			r.Barrier()
			once.Do(func() { close(started) })
		}
	})
	if res.Err == nil {
		t.Fatal("cancelled run must report an error")
	}
	if !errors.Is(res.Err, ErrAborted) || !errors.Is(res.Err, cause) {
		t.Errorf("Err = %v, want ErrAborted joined with the cancel cause", res.Err)
	}
}

func TestAbortOnCancelStopDisarms(t *testing.T) {
	// Calling stop before the context is cancelled must disarm the watcher:
	// a later cancellation no longer aborts the machine.
	ctx, cancel := context.WithCancelCause(context.Background())
	m := NewMachine(Config{Ranks: 2})
	stop := m.AbortOnCancel(ctx)
	stop()
	cancel(errors.New("too late"))
	res := m.Run(func(r *Rank) { r.Barrier() })
	if res.Err != nil {
		t.Errorf("disarmed watcher must not abort, got %v", res.Err)
	}
	// A background (non-cancellable) context arms nothing at all.
	stop2 := m.AbortOnCancel(context.Background())
	stop2()
}

// TestBarrierWait: at each barrier a rank counts the clock the barrier
// releases it at, the latest arrival, minus its own arrival clock, and
// BarrierStats' sum includes the waits of the barrier it completes. Rank i
// arrives after 1000·i ops of 6 ns, so it waits 6 µs for each rank after it.
func TestBarrierWait(t *testing.T) {
	const p = 5
	for _, workers := range []int{1, 3} {
		var own [p]uint64
		var sum [p]CommStats
		res := NewMachine(Config{Ranks: p, Workers: workers}).Run(func(r *Rank) {
			r.Compute(float64(1000 * r.ID()))
			sum[r.ID()] = r.BarrierStats()
			own[r.ID()] = r.Stats().BarrierWaitNs
			r.Barrier() // every rank arrives at the same clock: no wait
		})
		for rank := range p {
			if want := uint64(6000 * (p - 1 - rank)); own[rank] != want {
				t.Errorf("workers=%d: rank %d waited %d ns, want %d", workers, rank, own[rank], want)
			}
			if sum[rank].BarrierWaitNs != 6000*(4+3+2+1) {
				t.Errorf("workers=%d: BarrierStats summed %d ns of waits, want 60000", workers, sum[rank].BarrierWaitNs)
			}
		}
		if res.Stats.BarrierWaitNs != 60000 {
			t.Errorf("workers=%d: the run waited %d ns, want 60000", workers, res.Stats.BarrierWaitNs)
		}
	}
}
