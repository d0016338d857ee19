// Worker-owned ranks: the execution engine behind Machine.Run.
//
// Run starts Config.Workers worker goroutines. Worker j owns the contiguous
// block BlockRange(P, Workers, j) of ranks, so node-mates share a worker, and
// each rank is a coroutine (iter.Pull): SPMD code keeps its natural blocking
// style, stacks and all, but a rank only ever runs when a worker resumes it,
// and it gives the worker back only at a barrier. This is what makes the rank
// count a simulation parameter instead of a hardware limit — at P=65,536 the
// Go runtime schedules Workers goroutines, not 65,536.
//
// A barrier epoch is one round. Each worker resumes the ranks of its block in
// order, each until it reaches the barrier or returns; a worker that runs out
// of its own ranks takes the unstarted ones of other blocks, so a block with
// more work does not hold the round up. An arrival is counted on the worker
// that ran the rank (the epoch's maximum clock and completion hook) and the
// rank yields, with no lock and no channel. A worker with nothing left to
// start folds its count into the machine barrier under one mutex; the last
// worker to arrive runs the completion hook, publishes the maximum and
// broadcasts, and the next round begins. A barrier costs two coroutine
// switches and one uncontended atomic claim per rank, and one lock per
// worker.
//
// Determinism: ownership changes only *when* and where a rank physically
// runs, never what it observes. Simulated clocks, barrier results and
// collective outputs are functions of the deposited values alone (the
// maximum of the clocks, a fold over the slots in rank order), so the order
// in which ranks and workers arrive cannot reach them, and sim-seconds and
// outputs are bit-identical for every Workers setting (pinned by the
// scheduler golden tests in internal/core).
//
// SPMD discipline: every rank takes part in every barrier. A rank that
// returns (or calls runtime.Goexit) while another rank waits at a barrier
// would leave that barrier one arrival short for ever; the machine aborts
// the run with errBarrierMismatch instead.

package pgas

import (
	"errors"
	"sync"
	"sync/atomic"
)

// errBarrierMismatch is the abort cause of a run in which some ranks stopped
// while others waited at a barrier.
var errBarrierMismatch = errors.New("pgas: a rank stopped while other ranks wait at a barrier")

// worker runs ranks as coroutines on one goroutine. Its counters are the
// local level of the barrier: written by the ranks it runs and read by the
// worker, all on the worker's goroutine, so they need no lock.
type worker struct {
	ranks []*Rank // the block it owns
	// next is the index in ranks of the block's next rank to start this
	// round; any worker may claim it.
	next atomic.Int64
	// maxClock and onComplete gather the arrivals of the ranks the worker
	// ran this round; parked and finished count them.
	maxClock         float64
	onComplete       func()
	parked, finished int
	_                [64]byte // keep next off the neighbouring worker's line
}

// machineBarrier is the machine level of the barrier: one arrival per worker
// per round.
type machineBarrier struct {
	mu               sync.Mutex
	cond             sync.Cond
	workers          []worker
	live             int // workers still running rounds
	arrived          int // workers arrived in the current round
	parked, finished int // ranks parked and returned in the current round
	epoch            uint64
	maxClock         float64
	onComplete       func()
	// result is the maximum clock of the last completed round. Resumed
	// ranks read it without the lock: it is rewritten only once every
	// worker has arrived again, after they all have.
	result float64
	done   bool // the last round ended with every rank returned
}

// claim returns a rank for worker self to resume this round, or nil once
// every block has been started: the worker's own block first, then the
// others'.
func (b *machineBarrier) claim(self int) *Rank {
	ws := b.workers
	for i := range ws {
		v := &ws[(self+i)%len(ws)]
		for {
			k := int(v.next.Add(1) - 1)
			if k >= len(v.ranks) {
				break
			}
			if r := v.ranks[k]; !r.done {
				return r
			}
		}
	}
	return nil
}

// run executes rounds until a round ends with every rank returned. Each
// round the worker resumes every rank it can claim until the rank reaches
// its next barrier or returns, then waits at the machine barrier.
func (w *worker) run(m *Machine, self int) {
	b := &m.barrier
	// A worker that exits while ranks remain — a rank panicked or called
	// runtime.Goexit — aborts the run and leaves the barrier, so the other
	// workers' rounds still complete and their ranks unwind.
	clean := false
	defer func() {
		if clean {
			return
		}
		m.Abort(errBarrierMismatch)
		b.mu.Lock()
		b.live--
		if b.arrived == b.live {
			m.completeRound()
		}
		b.mu.Unlock()
	}()
	for {
		for r := b.claim(self); r != nil; r = b.claim(self) {
			r.worker = w
			if _, ok := r.next(); ok {
				w.parked++
			} else {
				r.done = true
				w.finished++
			}
		}
		if m.arrive(w) {
			clean = true
			return
		}
	}
}

// arrive folds the worker's round into the machine barrier and blocks until
// every worker has arrived. The last worker to arrive runs the round's
// completion hook under the lock before publishing the maximum clock. It
// reports whether the run is over: no rank is left to resume.
func (m *Machine) arrive(w *worker) bool {
	b := &m.barrier
	b.mu.Lock()
	if w.maxClock > b.maxClock {
		b.maxClock = w.maxClock
	}
	if w.onComplete != nil {
		b.onComplete = w.onComplete
	}
	b.parked += w.parked
	b.finished += w.finished
	b.arrived++
	if b.arrived == b.live {
		m.completeRound()
	} else {
		for e := b.epoch; b.epoch == e; {
			b.cond.Wait()
		}
	}
	done := b.done
	b.mu.Unlock()
	w.maxClock, w.onComplete, w.parked, w.finished = 0, nil, 0, 0
	return done
}

// completeRound ends a round, under the barrier lock: it runs the epoch's
// completion hook, publishes the maximum clock, aborts a run whose ranks
// disagree on the barrier, rewinds every block for the next round and wakes
// the waiting workers.
func (m *Machine) completeRound() {
	b := &m.barrier
	if b.parked > 0 && b.finished > 0 {
		m.Abort(errBarrierMismatch)
	}
	if b.onComplete != nil && !m.aborted.Load() {
		b.onComplete()
	}
	b.result = b.maxClock
	b.done = b.parked == 0
	b.maxClock, b.onComplete = 0, nil
	b.arrived, b.parked, b.finished = 0, 0, 0
	for i := range b.workers {
		b.workers[i].next.Store(0)
	}
	b.epoch++
	b.cond.Broadcast()
}
