package pgas

import (
	"fmt"
	"testing"
)

// BenchmarkCollectivesP256 exercises one round of every collective on a
// P=256 machine and reports allocations per round. This is the measurement
// behind the large-P-lean collectives work: the historical implementation
// allocated fresh O(P) scratch per call per rank (O(P²) per round), which is
// what made P=1024-4096 simulations impractical.
func BenchmarkCollectivesP256(b *testing.B) {
	const p = 256
	m := NewMachine(Config{Ranks: p, RanksPerNode: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(func(r *Rank) {
			sum := AllReduce(r, r.ID(), ReduceSum)
			if sum != p*(p-1)/2 {
				b.Errorf("AllReduce sum = %d", sum)
			}
			ExScan(r, 1, ReduceSum)
			Gather(r, r.ID())
			GatherV(r, []int{r.ID(), r.ID() + 1}, 8)
			ExchangeFunc(r, []int{r.ID()}, func(int, int) int { return r.ID() + 1 }, func(int) int { return 8 })
		})
	}
}

// BenchmarkExchangeP measures the sparse personalized exchange at growing
// rank counts: a fixed global item volume is scattered to pseudo-random
// destinations, so per-rank batch counts shrink as P grows while the mailbox
// machinery's overhead would show up as super-linear cost.
func BenchmarkExchangeP(b *testing.B) {
	for _, p := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			m := NewMachine(Config{Ranks: p, RanksPerNode: 4})
			const totalItems = 1 << 16
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Run(func(r *Rank) {
					lo, hi := r.BlockRange(totalItems)
					items := make([]int, 0, hi-lo)
					for v := lo; v < hi; v++ {
						items = append(items, v)
					}
					got := ExchangeFunc(r, items,
						func(_ int, item int) int { return item * 0x9e3779b9 },
						func(int) int { return 8 })
					r.ReleaseResident(len(got) * 8)
				})
			}
		})
	}
}
