package pgas

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// settleGoroutines waits until the process is back to at most want
// goroutines, failing the test if it is not within a few seconds: a worker
// or rank coroutine left behind by a run shows up here.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the run, %d before:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunLeavesNoGoroutines: whichever way a run ends — normally, cancelled
// through AbortOnCancel while ranks are parked at a barrier, or by an
// InjectBarrierFailure trap — every worker and every rank coroutine is gone
// once Run (and the watcher's stop) returns. A lost wake-up would leave a
// worker parked at the machine barrier for ever, and a coroutine that was
// never finished would leave its goroutine behind.
func TestRunLeavesNoGoroutines(t *testing.T) {
	for _, p := range []int{1, 7, 64} {
		for _, workers := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("P=%d/workers=%d", p, workers), func(t *testing.T) {
				before := runtime.NumGoroutine()

				m := NewMachine(Config{Ranks: p, RanksPerNode: 4, Workers: workers})
				res := m.Run(func(r *Rank) {
					for i := 0; i < 5; i++ {
						r.Compute(float64(r.ID() * i))
						if got := AllReduce(r, 1, ReduceSum); got != p {
							t.Errorf("AllReduce = %d, want %d", got, p)
						}
						r.Barrier()
					}
				})
				if res.Err != nil {
					t.Fatalf("normal run: %v", res.Err)
				}
				settleGoroutines(t, before)

				// Cancel while every other rank is parked at the second
				// barrier: the last rank holds its worker until the abort is
				// recorded, then arrives at the poisoned barrier itself.
				cause := errors.New("tenant hung up")
				ctx, cancel := context.WithCancelCause(context.Background())
				m = NewMachine(Config{Ranks: p, RanksPerNode: 4, Workers: workers})
				stop := m.AbortOnCancel(ctx)
				started := make(chan struct{})
				cancelled := make(chan struct{})
				go func() {
					defer close(cancelled)
					<-started
					cancel(cause)
				}()
				var finished atomic.Int32
				res = m.Run(func(r *Rank) {
					r.Barrier()
					if r.ID() == p-1 {
						close(started)
						for m.AbortErr() == nil {
							time.Sleep(time.Millisecond)
						}
					}
					r.Barrier()
					finished.Add(1)
				})
				stop()
				<-cancelled
				if !errors.Is(res.Err, ErrAborted) || !errors.Is(res.Err, cause) {
					t.Errorf("cancelled run: Err = %v, want ErrAborted joined with the cause", res.Err)
				}
				if n := finished.Load(); n != 0 {
					t.Errorf("cancelled run: %d ranks passed the poisoned barrier", n)
				}
				settleGoroutines(t, before)

				trap := errors.New("injected")
				m = NewMachine(Config{Ranks: p, RanksPerNode: 4, Workers: workers})
				m.InjectBarrierFailure(7, trap)
				res = m.Run(func(r *Rank) {
					for {
						r.Barrier()
						ExScan(r, r.ID(), ReduceSum)
					}
				})
				if !errors.Is(res.Err, ErrAborted) || !errors.Is(res.Err, trap) {
					t.Errorf("trapped run: Err = %v, want ErrAborted joined with the cause", res.Err)
				}
				settleGoroutines(t, before)
			})
		}
	}
}

// TestBarrierMismatchAborts: ranks returning, or calling runtime.Goexit as
// t.FailNow does, while others wait at a barrier abort the run instead of
// hanging it, whether the ranks that stopped share a worker with the waiting
// ones or own a whole worker, and leave no goroutine behind.
func TestBarrierMismatchAborts(t *testing.T) {
	bodies := map[string]func(r *Rank){
		"return": func(r *Rank) {
			if r.ID() < 4 {
				r.Barrier()
			}
		},
		"goexit": func(r *Rank) {
			r.Barrier()
			if r.ID() == 3 {
				runtime.Goexit()
			}
			r.Barrier()
		},
	}
	for name, body := range bodies {
		for _, workers := range []int{1, 2, 3} {
			before := runtime.NumGoroutine()
			res := NewMachine(Config{Ranks: 7, Workers: workers}).Run(body)
			if !errors.Is(res.Err, ErrAborted) || !errors.Is(res.Err, errBarrierMismatch) {
				t.Errorf("%s, workers=%d: Err = %v, want ErrAborted joined with errBarrierMismatch", name, workers, res.Err)
			}
			settleGoroutines(t, before)
		}
	}
}

// TestIdleWorkerClaimsUnstartedRanks: a worker that has started all of its
// own ranks takes the unstarted ranks of another block. Rank 0 holds worker
// 0, which owns ranks 0-3, until rank 1 has run in the same round, and only
// worker 1 can run it then.
func TestIdleWorkerClaimsUnstartedRanks(t *testing.T) {
	ran := make(chan struct{}, 1)
	NewMachine(Config{Ranks: 8, Workers: 2}).Run(func(r *Rank) {
		for round := 0; round < 3; round++ {
			switch r.ID() {
			case 0:
				select {
				case <-ran:
				case <-time.After(5 * time.Second):
					t.Errorf("round %d: rank 1 did not run while rank 0 held its worker", round)
				}
			case 1:
				ran <- struct{}{}
			}
			r.Barrier()
		}
	})
}

// TestWorkersStress runs many barriers and collectives over seeded, uneven
// per-rank work — simulated and real, so ranks reach each barrier in a
// different physical order every round — and requires every collective's
// value and every rank's clock to be the same at each worker count. Run it
// under -race: a shared result read before its barrier completes, or a slot
// written after, is a data race.
func TestWorkersStress(t *testing.T) {
	const rounds = 40
	for _, p := range []int{1, 7, 64} {
		var first RunResult
		var firstClocks []float64
		for _, workers := range []int{1, 2, 3} {
			m := NewMachine(Config{Ranks: p, RanksPerNode: 4, Workers: workers})
			clocks := make([]float64, p)
			res := m.Run(func(r *Rank) {
				rng := rand.New(rand.NewSource(int64(r.ID()) + 1))
				sink := 0
				for round := 0; round < rounds; round++ {
					work := rng.Intn(5000)
					for i := 0; i < work; i++ {
						sink += i ^ round
					}
					r.Compute(float64(work))
					v := r.ID()*round + 1
					if got, want := AllReduce(r, v, ReduceSum), round*p*(p-1)/2+p; got != want {
						t.Errorf("P=%d workers=%d round %d: AllReduce = %d, want %d", p, workers, round, got, want)
					}
					if got, want := ExScan(r, v, ReduceSum), round*r.ID()*(r.ID()-1)/2+r.ID(); got != want {
						t.Errorf("P=%d workers=%d round %d rank %d: ExScan = %d, want %d", p, workers, round, r.ID(), got, want)
					}
					if got := Shared(r, func() int { return round * 1000 }); got != round*1000 {
						t.Errorf("P=%d workers=%d round %d: Shared = %d", p, workers, round, got)
					}
					in := ExchangeFunc(r, []int{r.ID(), round}, func(i, _ int) int { return r.ID() + i + round }, func(int) int { return 8 })
					r.ReleaseResident(8 * len(in))
					if round%4 == 0 {
						r.Barrier()
					}
				}
				clocks[r.ID()] = r.Clock()
				if sink == -1 {
					t.Log(sink)
				}
			})
			if res.Err != nil {
				t.Fatalf("P=%d workers=%d: %v", p, workers, res.Err)
			}
			res.Wall = 0
			if workers == 1 {
				first, firstClocks = res, clocks
				continue
			}
			if res != first {
				t.Errorf("P=%d: workers=%d gives %+v, workers=1 %+v", p, workers, res, first)
			}
			for i := range clocks {
				if clocks[i] != firstClocks[i] {
					t.Errorf("P=%d rank %d: clock %v at workers=%d, %v at workers=1", p, i, clocks[i], workers, firstClocks[i])
				}
			}
		}
	}
}
