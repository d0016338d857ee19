// Package pgas implements the virtual PGAS (Partitioned Global Address
// Space) runtime the assembler is built on.
//
// The original MetaHipMer is written in Unified Parallel C and runs on a Cray
// supercomputer. Here the same SPMD programming model is reproduced inside a
// single process: a Machine hosts P ranks, each with its own goroutine,
// grouped into virtual nodes, with a pooled scheduler (see scheduler.go)
// admitting only Config.Workers of them as runnable at a time so P can reach
// into the thousands. Ranks communicate through the higher-level data
// structures (distributed hash tables, all-to-all exchanges, global atomics)
// which are all built on the primitives in this package.
//
// Every remote operation is metered. A configurable cost model converts the
// metered operations into a deterministic *simulated* execution time per
// rank, which is what the scaling experiments report: it reproduces the
// shapes of the paper's strong/weak scaling results (communication costs,
// aggregation benefits, off-node vs on-node locality, load imbalance) without
// requiring thousands of physical cores. Real wall-clock time is also
// tracked, and the ranks really do run concurrently, so the distributed data
// structures are exercised under true parallelism.
package pgas

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"time"
)

// CostModel converts metered operations into simulated seconds. The defaults
// are loosely calibrated to a Cray-XC-class machine: microsecond-scale
// off-node latency, ~1.25 GB/s per-rank off-node bandwidth (ByteOffNode), and
// a few nanoseconds per unit of local work.
type CostModel struct {
	// ComputePerOp is the simulated cost in seconds of one unit of local
	// work (roughly: touching one k-mer, one base, or one hash bucket).
	ComputePerOp float64
	// LatencyOnNode and LatencyOffNode are the per-message costs of a
	// communication event that stays within a virtual node or crosses
	// nodes, respectively.
	LatencyOnNode  float64
	LatencyOffNode float64
	// ByteOnNode and ByteOffNode are the per-byte transfer costs.
	ByteOnNode  float64
	ByteOffNode float64
	// AtomicCost is the cost of one remote atomic operation.
	AtomicCost float64
	// BarrierCost is the per-participant cost of a barrier.
	BarrierCost float64
}

// DefaultCostModel returns the calibration used by the experiments.
func DefaultCostModel() CostModel {
	return CostModel{
		ComputePerOp:   6e-9,
		LatencyOnNode:  4e-7,
		LatencyOffNode: 2.5e-6,
		ByteOnNode:     2.0e-10, // ~5 GB/s
		ByteOffNode:    8.0e-10, // ~1.25 GB/s per rank
		AtomicCost:     3e-6,
		BarrierCost:    1.5e-5,
	}
}

// Config describes a virtual machine.
type Config struct {
	// Ranks is the total number of SPMD ranks (UPC "threads").
	Ranks int
	// RanksPerNode groups ranks into virtual nodes; communication between
	// ranks on the same node is cheaper. Defaults to Ranks (single node).
	RanksPerNode int
	// Workers bounds how many rank goroutines are runnable at once (the
	// pooled scheduler's slot count). Defaults to GOMAXPROCS and is clamped
	// to Ranks. Workers is an execution knob, not a simulation parameter:
	// simulated seconds, outputs and statistics are bit-identical for every
	// value, only wall-clock time and memory pressure change.
	Workers int
	// Cost is the simulated cost model. The zero value means DefaultCostModel
	// unless CostSet is true.
	Cost CostModel
	// CostSet makes an all-zero Cost meaningful: when true, Cost is used
	// verbatim even if it is the zero CostModel, which simulates a machine
	// with free communication (the ablation that isolates algorithmic work
	// from communication cost). When false, a zero Cost selects
	// DefaultCostModel.
	CostSet bool
}

func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.RanksPerNode <= 0 || c.RanksPerNode > c.Ranks {
		c.RanksPerNode = c.Ranks
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.Ranks {
		c.Workers = c.Ranks
	}
	if !c.CostSet && c.Cost == (CostModel{}) {
		c.Cost = DefaultCostModel()
	}
	return c
}

// CommStats counts the communication and computation performed by one rank.
// BytesSent is outbound traffic (puts, flushed update batches, collective
// forwarding); BytesReceived is inbound traffic (one-sided gets, cache-miss
// fills, collective deliveries). OffNodeBytes counts every byte that crossed
// a node boundary exactly once, attributed to the rank that initiated the
// transfer in that direction.
type CommStats struct {
	ComputeOps      float64
	Messages        uint64
	OffNodeMessages uint64
	BytesSent       uint64
	BytesReceived   uint64
	OffNodeBytes    uint64
	RemoteGets      uint64
	RemotePuts      uint64
	AtomicOps       uint64
	Barriers        uint64
	CacheHits       uint64
	CacheMisses     uint64
	// PeakResidentBytes is the high-water mark of collective payload bytes
	// materialized by a rank at one time: collectives charge the payloads
	// they deliver (an all-to-all charges the batches actually received)
	// and callers release what they drop via ReleaseResident. Unlike the
	// traffic counters this is a per-rank *footprint*, so Add folds it with
	// max, and an aggregate CommStats reports the worst rank's peak.
	PeakResidentBytes uint64
}

// Add accumulates other into s. Traffic counters are summed;
// PeakResidentBytes, a per-rank footprint, is folded with max (the worst
// rank's peak).
func (s *CommStats) Add(other CommStats) {
	s.ComputeOps += other.ComputeOps
	s.Messages += other.Messages
	s.OffNodeMessages += other.OffNodeMessages
	s.BytesSent += other.BytesSent
	s.BytesReceived += other.BytesReceived
	s.OffNodeBytes += other.OffNodeBytes
	s.RemoteGets += other.RemoteGets
	s.RemotePuts += other.RemotePuts
	s.AtomicOps += other.AtomicOps
	s.Barriers += other.Barriers
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
	if other.PeakResidentBytes > s.PeakResidentBytes {
		s.PeakResidentBytes = other.PeakResidentBytes
	}
}

// Machine is a virtual PGAS machine: a set of ranks grouped into nodes,
// with shared state for barriers, exchanges, reductions and global atomics.
type Machine struct {
	cfg Config

	barrier *clockBarrier
	sched   *scheduler
	inboxes []exchInbox // per-destination mailboxes of the exchanges
	slots   []any       // one deposit slot per rank, shared by the collectives

	// Shared collective result: written once per collective by the rank
	// that completes the entry barrier (under the barrier lock, see
	// Rank.barrierOn) and read by every rank between the entry and exit
	// barriers. Replaces the historical fresh make([]T, P) per call per
	// rank, which made a collective round O(P²) transient allocation.
	collResult any

	atomicMu sync.Mutex
	atomics  []int64

	// Abort state: once set, every rank unwinds at its next barrier (see
	// Abort). trapBarrier/trapErr arm the fault-injection hook before Run.
	abortMu     sync.Mutex
	abortErr    error
	trapBarrier uint64
	trapErr     error

	timingMu sync.Mutex
	stages   []StageTime
}

// ErrAborted is the base error of an aborted run: RunResult.Err wraps it
// (together with the cause passed to Abort) whenever a run was killed
// mid-flight instead of completing.
var ErrAborted = errors.New("pgas: run aborted")

// abortPanic is the sentinel panic value a rank goroutine unwinds with when
// the machine has been aborted; Machine.Run recovers it.
type abortPanic struct{}

// StageTime records the simulated duration of one named pipeline stage.
type StageTime struct {
	Name    string
	Seconds float64
}

// NewMachine creates a virtual machine with the given configuration.
func NewMachine(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{cfg: cfg}
	m.barrier = newClockBarrier(cfg.Ranks)
	m.sched = newScheduler(cfg.Workers)
	m.inboxes = make([]exchInbox, cfg.Ranks)
	m.slots = make([]any, cfg.Ranks)
	return m
}

// Ranks returns the number of ranks.
func (m *Machine) Ranks() int { return m.cfg.Ranks }

// NodeOf returns the virtual node hosting a rank.
func (m *Machine) NodeOf(rank int) int { return rank / m.cfg.RanksPerNode }

// NewAtomic allocates a global atomic counter initialized to init and
// returns its handle. Atomics must be allocated before Run (typically by the
// code that sets up a parallel phase).
func (m *Machine) NewAtomic(init int64) int {
	m.atomicMu.Lock()
	defer m.atomicMu.Unlock()
	m.atomics = append(m.atomics, init)
	return len(m.atomics) - 1
}

// RunResult summarizes a completed SPMD execution.
type RunResult struct {
	// SimSeconds is the simulated execution time: the maximum simulated
	// clock over all ranks at the end of the run.
	SimSeconds float64
	// Wall is the real elapsed wall-clock time of the run.
	Wall time.Duration
	// Stats is the sum of all ranks' communication statistics.
	Stats CommStats
	// Stages lists the named stage timings recorded during the run.
	Stages []StageTime
	// Err is non-nil when the run was aborted (Abort or an armed
	// InjectBarrierFailure fired) instead of running to completion; it wraps
	// ErrAborted and the abort cause. The other fields then describe the
	// partial execution up to the abort.
	Err error
}

// Abort kills the current run: the given cause is recorded (first caller
// wins) and every rank unwinds with a recovered panic at its next barrier
// arrival, including ranks already blocked inside the barrier. Collectives
// are barrier-synchronized, so no rank can deadlock waiting for a peer that
// aborted. The machine must not be reused for further runs after an abort.
func (m *Machine) Abort(cause error) {
	m.abortMu.Lock()
	if m.abortErr == nil {
		if cause == nil {
			cause = errors.New("no cause given")
		}
		m.abortErr = cause
	}
	m.abortMu.Unlock()
	// Poison the barrier before unbounding the pool: a rank woken by the
	// scheduler's abort drain must already observe the aborted barrier.
	m.barrier.abort()
	m.sched.abort()
}

// AbortErr returns the cause recorded by Abort, or nil if the machine was
// never aborted.
func (m *Machine) AbortErr() error {
	m.abortMu.Lock()
	defer m.abortMu.Unlock()
	return m.abortErr
}

// AbortOnCancel arms context-driven cancellation: when ctx is cancelled the
// machine aborts with the context's cause, so every rank unwinds at its next
// barrier and Run reports an error wrapping ErrAborted (and the cause). The
// returned stop function disarms the watcher synchronously — once it returns,
// no abort from this watcher can happen — and must be called once the run
// completes, on every path, or the watcher goroutine leaks. A ctx that is
// never cancelled costs one parked goroutine for the duration of the run.
func (m *Machine) AbortOnCancel(ctx context.Context) (stop func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			// If stop raced the cancellation, disarming wins: the caller
			// observed stop() return, so no abort may follow it.
			select {
			case <-done:
			default:
				m.Abort(context.Cause(ctx))
			}
		case <-done:
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// InjectBarrierFailure arms the mid-collective fault-injection hook: rank 0's
// n-th Barrier arrival (1-based, counting every barrier it participates in,
// including those inside collectives) calls Abort(cause) instead of entering
// the barrier. Pinning the trap to one rank's own deterministic barrier
// sequence makes the kill point — and therefore the set of checkpoints
// durable at the kill — reproducible regardless of goroutine scheduling.
// Must be called before Run.
func (m *Machine) InjectBarrierFailure(n uint64, cause error) {
	m.abortMu.Lock()
	m.trapBarrier = n
	m.trapErr = cause
	m.abortMu.Unlock()
}

// Run executes body once per rank (SPMD style) and blocks until every rank
// has returned. It may be called multiple times on the same machine; the
// returned result covers only this run.
func (m *Machine) Run(body func(r *Rank)) RunResult {
	m.timingMu.Lock()
	m.stages = nil
	m.timingMu.Unlock()

	ranks := make([]*Rank, m.cfg.Ranks)
	for i := range ranks {
		ranks[i] = &Rank{machine: m, id: i, node: m.NodeOf(i), token: newParkToken()}
	}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(len(ranks))
	for _, r := range ranks {
		go func(r *Rank) {
			defer wg.Done()
			// A rank that hits an aborted barrier unwinds with the
			// abortPanic sentinel; swallow it so the run as a whole can
			// report the abort. Any other panic is a real bug: re-raise.
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(abortPanic); ok {
						return
					}
					panic(p)
				}
			}()
			// Give the slot back on every exit path (return, abort unwind,
			// real panic); barrier waits release it themselves and reclaim
			// it on wake, tracked by hasSlot.
			defer func() {
				if r.hasSlot {
					r.hasSlot = false
					m.sched.release()
				}
			}()
			m.sched.acquire(r.token)
			r.hasSlot = true
			body(r)
		}(r)
	}
	wg.Wait()

	var res RunResult
	res.Wall = time.Since(start)
	if cause := m.AbortErr(); cause != nil {
		res.Err = errors.Join(ErrAborted, cause)
	}
	for _, r := range ranks {
		res.Stats.Add(r.stats)
		if r.clock > res.SimSeconds {
			res.SimSeconds = r.clock
		}
	}
	m.timingMu.Lock()
	res.Stages = append([]StageTime(nil), m.stages...)
	m.timingMu.Unlock()
	return res
}

// recordStage accumulates the duration of a named stage. Stages that run
// once per pipeline iteration (e.g. "alignment") therefore report their
// total time across iterations.
func (m *Machine) recordStage(name string, seconds float64) {
	m.timingMu.Lock()
	defer m.timingMu.Unlock()
	for i := range m.stages {
		if m.stages[i].Name == name {
			m.stages[i].Seconds += seconds
			return
		}
	}
	m.stages = append(m.stages, StageTime{Name: name, Seconds: seconds})
}

// Rank is the per-goroutine handle of one SPMD rank.
type Rank struct {
	machine  *Machine
	id       int
	node     int
	clock    float64
	resident uint64
	stats    CommStats

	// Pooled-scheduler state: the rank's parking token and whether it
	// currently holds a worker slot. Touched only by the rank's own
	// goroutine.
	token   *parkToken
	hasSlot bool

	// Key buffers of ExchangeFunc's destination grouping, kept across
	// exchanges (see sortExchKeys).
	exchKeys, exchTmp []uint64
}

// ID returns the rank index in [0, NRanks).
func (r *Rank) ID() int { return r.id }

// NRanks returns the number of ranks in the machine.
func (r *Rank) NRanks() int { return r.machine.cfg.Ranks }

// Machine returns the machine this rank belongs to.
func (r *Rank) Machine() *Machine { return r.machine }

// SameNode reports whether the given rank lives on the same virtual node.
func (r *Rank) SameNode(other int) bool { return r.machine.NodeOf(other) == r.node }

// Clock returns the rank's simulated clock in seconds.
func (r *Rank) Clock() float64 { return r.clock }

// Stats returns a copy of the rank's communication statistics.
func (r *Rank) Stats() CommStats { return r.stats }

// Compute charges ops units of local work to the rank's simulated clock.
func (r *Rank) Compute(ops float64) {
	if ops <= 0 {
		return
	}
	r.stats.ComputeOps += ops
	r.clock += ops * r.machine.cfg.Cost.ComputePerOp
}

// ChargeSend charges the cost of sending msgs messages totalling bytes bytes
// to the destination rank (a one-sided put or an aggregated batch).
func (r *Rank) ChargeSend(dest int, bytes int, msgs int) {
	if msgs <= 0 {
		return
	}
	c := r.machine.cfg.Cost
	off := !r.SameNode(dest)
	r.stats.Messages += uint64(msgs)
	r.stats.BytesSent += uint64(bytes)
	r.stats.RemotePuts += uint64(msgs)
	if off {
		r.stats.OffNodeMessages += uint64(msgs)
		r.stats.OffNodeBytes += uint64(bytes)
		r.clock += float64(msgs)*c.LatencyOffNode + float64(bytes)*c.ByteOffNode
	} else {
		r.clock += float64(msgs)*c.LatencyOnNode + float64(bytes)*c.ByteOnNode
	}
}

// ChargeGet charges the cost of fetching bytes bytes from the source rank
// (a one-sided get, e.g. a remote hash-table lookup). The fetched bytes are
// inbound traffic and are accounted to BytesReceived, not BytesSent.
func (r *Rank) ChargeGet(src int, bytes int, msgs int) {
	if msgs <= 0 {
		return
	}
	c := r.machine.cfg.Cost
	off := !r.SameNode(src)
	r.stats.Messages += uint64(msgs)
	r.stats.RemoteGets += uint64(msgs)
	r.stats.BytesReceived += uint64(bytes)
	if off {
		r.stats.OffNodeMessages += uint64(msgs)
		r.stats.OffNodeBytes += uint64(bytes)
		r.clock += float64(msgs)*c.LatencyOffNode + float64(bytes)*c.ByteOffNode
	} else {
		r.clock += float64(msgs)*c.LatencyOnNode + float64(bytes)*c.ByteOnNode
	}
}

// ChargeResident records that bytes bytes of collective payload are now
// materialized on this rank (a received exchange batch, a distributed set's
// local shard) and updates the peak-resident high-water
// mark. Resident tracking is a memory-footprint meter, not a clock charge:
// it costs no simulated time.
func (r *Rank) ChargeResident(bytes int) {
	if bytes <= 0 {
		return
	}
	r.resident += uint64(bytes)
	if r.resident > r.stats.PeakResidentBytes {
		r.stats.PeakResidentBytes = r.resident
	}
}

// ReleaseResident records that bytes bytes previously charged with
// ChargeResident have been dropped (the payload was consumed or replaced).
// Releases are clamped at zero so a conservative caller can never underflow
// the meter.
func (r *Rank) ReleaseResident(bytes int) {
	if bytes <= 0 {
		return
	}
	if uint64(bytes) > r.resident {
		r.resident = 0
		return
	}
	r.resident -= uint64(bytes)
}

// Resident returns the collective payload bytes currently materialized on
// this rank.
func (r *Rank) Resident() uint64 { return r.resident }

// AccountReceived records inbound bytes whose wire time the sender already
// paid (the receiver side of a one-way aggregated transfer, as in the
// collectives' delivery accounting). It keeps the global
// BytesSent==BytesReceived invariant without double-charging the clock.
func (r *Rank) AccountReceived(bytes int) {
	if bytes <= 0 {
		return
	}
	r.stats.BytesReceived += uint64(bytes)
}

// ChargeCacheHit records a software-cache hit (served locally, nearly free).
func (r *Rank) ChargeCacheHit() {
	r.stats.CacheHits++
	r.Compute(1)
}

// ChargeCacheMiss records a software-cache miss that had to go remote.
func (r *Rank) ChargeCacheMiss(src int, bytes int) {
	r.stats.CacheMisses++
	r.ChargeGet(src, bytes, 1)
}

// AtomicFetchAdd atomically adds delta to the global counter with the given
// handle and returns the previous value. The cost of a remote atomic is
// charged to the calling rank.
func (r *Rank) AtomicFetchAdd(handle int, delta int64) int64 {
	m := r.machine
	m.atomicMu.Lock()
	prev := m.atomics[handle]
	m.atomics[handle] += delta
	m.atomicMu.Unlock()
	r.stats.AtomicOps++
	r.clock += m.cfg.Cost.AtomicCost
	return prev
}

// Barrier synchronizes all ranks and advances every rank's simulated clock
// to the maximum clock among them (plus the barrier cost), modelling the
// fact that a stage ends only when its slowest rank finishes.
func (r *Rank) Barrier() { r.barrierOn(nil) }

// barrierOn is Barrier with an optional completion hook: onComplete runs
// exactly once per barrier epoch, on the goroutine of the last-arriving
// rank, under the barrier lock, before any waiter wakes. The collectives use
// it to compute their shared result once instead of once per rank.
func (r *Rank) barrierOn(onComplete func()) {
	m := r.machine
	r.stats.Barriers++
	// The fault-injection trap: trapBarrier is armed (if at all) before Run,
	// so the unsynchronized read cannot race with the write.
	if r.id == 0 && m.trapBarrier != 0 && r.stats.Barriers == m.trapBarrier {
		m.Abort(m.trapErr)
		panic(abortPanic{})
	}
	r.clock = m.barrier.await(r, r.clock, onComplete) + m.cfg.Cost.BarrierCost
}

// Detach releases the rank's worker-pool slot without blocking, for code
// that is about to block on something *other than* a pgas barrier — the
// checkpoint writer's deposit rendezvous is the canonical case: rank 0 waits
// on a condition variable for deposits from ranks that may themselves be
// parked waiting for a slot, so holding the slot across that wait would
// deadlock a Workers=1 pool. A detached rank must not issue pgas operations;
// call Reattach before continuing. Detach/Reattach nest safely (they are
// no-ops when the slot is already released/held).
func (r *Rank) Detach() {
	if r.hasSlot {
		r.hasSlot = false
		r.machine.sched.release()
	}
}

// Reattach blocks until a worker-pool slot is free again and reclaims it,
// undoing Detach.
func (r *Rank) Reattach() {
	if !r.hasSlot {
		r.machine.sched.acquire(r.token)
		r.hasSlot = true
	}
}

// RestoreState overwrites the rank's simulated clock and resident-bytes
// meter with values captured by a checkpoint, without charging anything.
// Checkpoints are written after a stage-end barrier, where the clock is
// identical on every rank, so restoring the recorded bits puts a resumed run
// on exactly the simulated timeline the original run was on — the foundation
// of the bit-identical sim-seconds guarantee across a kill/resume cycle.
func (r *Rank) RestoreState(clock float64, resident uint64) {
	r.clock = clock
	r.resident = resident
	if resident > r.stats.PeakResidentBytes {
		r.stats.PeakResidentBytes = resident
	}
}

// StageStart returns a token capturing the rank's clock after a barrier; use
// with StageEnd to time a pipeline stage.
func (r *Rank) StageStart() float64 {
	r.Barrier()
	return r.clock
}

// StageEnd ends a stage started with StageStart, records its simulated
// duration under the given name, and returns that duration. The barrier
// before measuring makes the duration identical on every rank; only rank 0
// records it, so repeated stages accumulate exactly once per execution.
func (r *Rank) StageEnd(name string, startClock float64) float64 {
	r.Barrier()
	dur := r.clock - startClock
	if r.id == 0 {
		r.machine.recordStage(name, dur)
	}
	return dur
}

// BlockRange returns the half-open range [lo, hi) of the items owned by this
// rank under a block distribution of n items.
func (r *Rank) BlockRange(n int) (lo, hi int) {
	return BlockRange(n, r.machine.cfg.Ranks, r.id)
}

// PairBlockRange returns the half-open range [lo, hi) of the items owned by
// this rank under a block distribution that never splits consecutive pairs
// (items 2i and 2i+1 always land on the same rank). Use it to distribute
// interleaved paired-end reads.
func (r *Rank) PairBlockRange(n int) (lo, hi int) {
	return PairBlockRange(n, r.machine.cfg.Ranks, r.id)
}

// PairBlockRange is the package-level form of Rank.PairBlockRange.
func PairBlockRange(n, p, rank int) (lo, hi int) {
	pairs := n / 2
	plo, phi := BlockRange(pairs, p, rank)
	lo, hi = plo*2, phi*2
	if rank == p-1 {
		hi = n // a trailing unpaired item goes to the last rank
	}
	return lo, hi
}

// BlockRange returns the half-open range [lo, hi) of items owned by rank
// `rank` under a block distribution of n items over p ranks.
func BlockRange(n, p, rank int) (lo, hi int) {
	if p <= 0 {
		return 0, n
	}
	per := n / p
	rem := n % p
	lo = rank*per + min(rank, rem)
	hi = lo + per
	if rank < rem {
		hi++
	}
	return lo, hi
}

// SortStages returns the stage timings sorted by descending duration.
func SortStages(stages []StageTime) []StageTime {
	out := append([]StageTime(nil), stages...)
	sort.Slice(out, func(i, j int) bool { return out[i].Seconds > out[j].Seconds })
	return out
}

// clockBarrier is a reusable barrier that also synchronizes the simulated
// clocks of the participating ranks to the maximum value. It is integrated
// with the pooled scheduler: a waiting rank hands its worker slot to the
// ranks still short of the barrier and reclaims one when the epoch
// completes, so a Workers=1 pool still drains every barrier.
type clockBarrier struct {
	mu       sync.Mutex
	n        int
	count    int
	maxClock float64
	// waiters are the parked arrivals of the current epoch; spare is the
	// previous epoch's list, recycled to avoid an O(P) allocation per
	// barrier.
	waiters []*parkToken
	spare   []*parkToken
	// aborted poisons the barrier: every current and future participant
	// unwinds with the abortPanic sentinel instead of synchronizing.
	aborted bool
}

func newClockBarrier(n int) *clockBarrier {
	return &clockBarrier{n: n}
}

func (b *clockBarrier) isAborted() bool {
	b.mu.Lock()
	a := b.aborted
	b.mu.Unlock()
	return a
}

// await blocks until all n participants have arrived and returns the maximum
// clock value among them. The last arriver runs onComplete (if any) under
// the barrier lock before publishing the result and waking the waiters; a
// non-last arriver releases its worker slot while parked and wakes already
// holding one (the wake-up and the slot grant are fused, see
// scheduler.unparkGranting). If the barrier is (or becomes) aborted, await
// unwinds with the abortPanic sentinel instead, without holding a slot
// (Run's cleanup consults Rank.hasSlot).
func (b *clockBarrier) await(r *Rank, clock float64, onComplete func()) float64 {
	b.mu.Lock()
	if b.aborted {
		b.mu.Unlock()
		panic(abortPanic{})
	}
	if clock > b.maxClock {
		b.maxClock = clock
	}
	b.count++
	if b.count == b.n {
		if onComplete != nil {
			onComplete()
		}
		result := b.maxClock
		b.maxClock = 0
		b.count = 0
		waiters := b.waiters
		// Recycle the arrays: next epoch's arrivals append to the other
		// one (the run queue keeps its own copies of the token pointers,
		// so reusing the array is safe even while some of these ranks are
		// still parked waiting for a slot grant).
		b.waiters, b.spare = b.spare[:0], b.waiters
		b.mu.Unlock()
		for _, w := range waiters {
			w.result = result
		}
		// Wake the epoch's waiters with their slot grants fused in: each
		// waiter parks exactly once and wakes already holding a slot.
		r.machine.sched.unparkGranting(waiters)
		return result
	}
	t := r.token
	b.waiters = append(b.waiters, t)
	b.mu.Unlock()
	// Hand the worker slot to a rank still short of the barrier; the
	// release must come *after* registering, and the one-element channel
	// absorbs a completion signal that lands in between.
	r.hasSlot = false
	r.machine.sched.release()
	<-t.wake
	if b.isAborted() {
		// The wake-up came from (or was overtaken by) an abort, so it
		// carries no slot grant: unwind without marking a slot held.
		panic(abortPanic{})
	}
	r.hasSlot = true
	return t.result
}

// abort poisons the barrier and wakes every waiter.
func (b *clockBarrier) abort() {
	b.mu.Lock()
	if b.aborted {
		b.mu.Unlock()
		return
	}
	b.aborted = true
	waiters := b.waiters
	b.waiters = nil
	b.mu.Unlock()
	for _, w := range waiters {
		w.wake <- struct{}{}
	}
}
