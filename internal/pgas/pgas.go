// Package pgas implements the virtual PGAS (Partitioned Global Address
// Space) runtime the assembler is built on.
//
// The original MetaHipMer is written in Unified Parallel C and runs on a Cray
// supercomputer. Here the same SPMD programming model is reproduced inside a
// single process: a Machine hosts P ranks grouped into virtual nodes, each
// rank a coroutine owned by one of Config.Workers worker goroutines (see
// scheduler.go), so P can reach into the tens of thousands while the Go
// runtime schedules only the workers. Ranks communicate through the
// higher-level data structures (distributed hash tables, all-to-all
// exchanges, global atomics) which are all built on the primitives in this
// package.
//
// Every remote operation is metered. A configurable cost model converts the
// metered operations into a deterministic *simulated* execution time per
// rank, which is what the scaling experiments report: it reproduces the
// shapes of the paper's strong/weak scaling results (communication costs,
// aggregation benefits, off-node vs on-node locality, load imbalance) without
// requiring thousands of physical cores. Real wall-clock time is also
// tracked, and the workers really do run concurrently, so the distributed
// data structures are exercised under true parallelism.
package pgas

import (
	"context"
	"errors"
	"iter"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
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

// hop returns the price of msgs point-to-point messages carrying bytes bytes
// in all, on-node or off-node: one latency per message plus the per-byte
// cost. Every point-to-point charge, one-sided or a collective's round, is
// priced by it.
func (c CostModel) hop(off bool, msgs, bytes int) float64 {
	if off {
		return float64(msgs)*c.LatencyOffNode + float64(bytes)*c.ByteOffNode
	}
	return float64(msgs)*c.LatencyOnNode + float64(bytes)*c.ByteOnNode
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
	// Workers is the number of worker goroutines that run the ranks, as
	// coroutines, one at a time per worker: each owns a contiguous block of
	// ranks (BlockRange) and, once it has started them, takes the unstarted
	// ranks of other blocks. Defaults to GOMAXPROCS and is clamped to Ranks.
	// Workers is an execution knob, not a simulation parameter: simulated
	// seconds, outputs and statistics are bit-identical for every value,
	// only wall-clock time and memory pressure change.
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
	// BarrierWaitNs is the simulated time the rank spent waiting in
	// barriers, in whole nanoseconds: at each barrier, the clock the barrier
	// releases the ranks at (the latest arrival) minus the rank's own arrival
	// clock, rounded (waitNs). It moves no clock; summed over the ranks and
	// divided by P it is, barrier by barrier, the latest arrival minus the
	// mean one. An integer so that a difference of two sums is exact, and
	// equal however long the run has been going.
	BarrierWaitNs uint64
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
	s.BarrierWaitNs += other.BarrierWaitNs
	if other.PeakResidentBytes > s.PeakResidentBytes {
		s.PeakResidentBytes = other.PeakResidentBytes
	}
}

// Machine is a virtual PGAS machine: a set of ranks grouped into nodes,
// with shared state for barriers, exchanges, reductions and global atomics.
type Machine struct {
	cfg Config

	barrier  machineBarrier
	inboxes  []exchInbox // per-destination mailboxes of the exchanges
	outboxes [][2]outbox // per-sender *exchOutbox[T] of the exchanges, by epoch parity
	slots    []any       // one deposit slot per rank, shared by the scalar collectives

	// Shared collective result: written once per collective by the worker
	// that completes the entry barrier (under the barrier lock, see
	// Rank.hostBarrier) and read by every rank before the next barrier
	// completes. Replaces the historical fresh make([]T, P) per call per
	// rank, which made a collective round O(P²) transient allocation.
	collResult any

	// The ranks of the current run, and the machine-wide sum of their
	// statistics that the last BarrierStats took (see there).
	ranks    []*Rank
	statsSum CommStats

	atomicMu sync.Mutex
	atomics  []int64

	// Abort state: once aborted is set, every rank unwinds at its next
	// barrier (see Abort). trapBarrier/trapErr arm the fault-injection hook
	// before Run.
	aborted     atomic.Bool
	abortMu     sync.Mutex
	abortErr    error
	trapBarrier uint64
	trapErr     error
}

// ErrAborted is the base error of an aborted run: RunResult.Err wraps it
// (together with the cause passed to Abort) whenever a run was killed
// mid-flight instead of completing.
var ErrAborted = errors.New("pgas: run aborted")

// abortPanic is the sentinel panic value a rank unwinds with when the
// machine has been aborted; its worker recovers it.
type abortPanic struct{}

// NewMachine creates a virtual machine with the given configuration.
func NewMachine(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{cfg: cfg}
	m.barrier.cond.L = &m.barrier.mu
	m.inboxes = make([]exchInbox, cfg.Ranks)
	m.outboxes = make([][2]outbox, cfg.Ranks)
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
	// HostBarriers is the number of barriers rank 0 arrived at on the host:
	// the priced ones Stats counts and the unpriced ones inside AllReduce and
	// ExScan. It is the count InjectBarrierFailure's trap counts.
	HostBarriers uint64
	// Err is non-nil when the run was aborted (Abort or an armed
	// InjectBarrierFailure fired) instead of running to completion; it wraps
	// ErrAborted and the abort cause. The other fields then describe the
	// partial execution up to the abort.
	Err error
}

// Abort kills the current run: the given cause is recorded (first caller
// wins) and every rank unwinds with a recovered panic at its next barrier
// arrival; a rank already parked at a barrier unwinds when that barrier's
// round ends, once every other rank has arrived or unwound. Collectives
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
	m.aborted.Store(true)
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
// n-th barrier arrival on the host (1-based, counting every barrier it
// participates in, the unpriced ones inside AllReduce and ExScan included:
// RunResult.HostBarriers) calls Abort(cause) instead of entering the
// barrier. Pinning the trap to one rank's own deterministic barrier
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
	p, nw := m.cfg.Ranks, m.cfg.Workers
	ranks := make([]*Rank, p)
	for i := range ranks {
		r := &Rank{machine: m, id: i, node: m.NodeOf(i)}
		r.next, r.stop = iter.Pull(func(yield func(struct{}) bool) {
			r.yield = yield
			// A rank that hits an aborted barrier unwinds with the
			// abortPanic sentinel; swallow it so the run as a whole can
			// report the abort. Any other panic is a real bug: re-raise.
			defer func() {
				if v := recover(); v != nil {
					if _, ok := v.(abortPanic); !ok {
						panic(v)
					}
				}
			}()
			body(r)
		})
		ranks[i] = r
	}
	m.ranks = ranks
	workers := make([]worker, nw)
	for j := range workers {
		lo, hi := BlockRange(p, nw, j)
		workers[j].ranks = ranks[lo:hi]
	}
	m.barrier.workers, m.barrier.live, m.barrier.done = workers, nw, false
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(nw)
	for j := range workers {
		go func() {
			defer wg.Done()
			workers[j].run(m, j)
		}()
	}
	wg.Wait()
	// Finish every coroutine: a rank left parked at a barrier by a worker
	// that exited early sees its yield fail and unwinds.
	for _, r := range ranks {
		r.stop()
	}
	m.ranks, m.collResult = nil, nil

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
	res.HostBarriers = ranks[0].hostBarriers
	return res
}

// Rank is the handle of one SPMD rank, used only by the rank's own
// coroutine.
type Rank struct {
	machine  *Machine
	id       int
	node     int
	clock    float64
	resident uint64
	stats    CommStats

	// The rank's coroutine: a worker resumes it with next, Run finishes it
	// with stop, and the rank gives the worker back with yield at each
	// barrier. worker is the worker resuming it this round; done is set once
	// body has returned.
	next   func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	worker *worker
	done   bool

	// Key buffers of ExchangeFunc's destination grouping, kept across
	// exchanges (see sortExchKeys), and the number of exchanges this rank
	// has entered, whose parity picks the buffers an exchange uses.
	exchKeys, exchTmp []uint64
	exchCount         int

	// hostBarriers counts the barriers the rank arrived at on the host,
	// priced or not (see hostBarrier): the count InjectBarrierFailure's trap
	// and RunResult.HostBarriers read.
	hostBarriers uint64
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
	off := !r.SameNode(dest)
	r.stats.Messages += uint64(msgs)
	r.stats.BytesSent += uint64(bytes)
	r.stats.RemotePuts += uint64(msgs)
	if off {
		r.stats.OffNodeMessages += uint64(msgs)
		r.stats.OffNodeBytes += uint64(bytes)
	}
	r.clock += r.machine.cfg.Cost.hop(off, msgs, bytes)
}

// ChargeGet charges the cost of fetching bytes bytes from the source rank
// (a one-sided get, e.g. a remote hash-table lookup). The fetched bytes are
// inbound traffic and are accounted to BytesReceived, not BytesSent.
func (r *Rank) ChargeGet(src int, bytes int, msgs int) {
	if msgs <= 0 {
		return
	}
	off := !r.SameNode(src)
	r.stats.Messages += uint64(msgs)
	r.stats.RemoteGets += uint64(msgs)
	r.stats.BytesReceived += uint64(bytes)
	if off {
		r.stats.OffNodeMessages += uint64(msgs)
		r.stats.OffNodeBytes += uint64(bytes)
	}
	r.clock += r.machine.cfg.Cost.hop(off, msgs, bytes)
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

// ChargeCacheMiss records items software-cache misses served by one remote
// get of bytes bytes from the source rank: one message, one RemoteGets, one
// latency, and items CacheMisses. A vectored get (UPC's bupc_memget_vlist)
// fetches many regions of one rank in a single message this way.
func (r *Rank) ChargeCacheMiss(src, bytes, items int) {
	r.stats.CacheMisses += uint64(items)
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

// BarrierStats is Barrier that also returns the machine-wide sum of every
// rank's statistics as the barrier completes, this barrier's arrivals and
// waits included. The sum is taken once, by the barrier's completion hook
// while every rank is parked, so it sends nothing and charges nothing: the
// clock and the counts move exactly as Barrier moves them.
func (r *Rank) BarrierStats() CommStats {
	m := r.machine
	r.barrierOn(m.sumStats)
	return m.statsSum
}

// sumStats is BarrierStats' completion hook. Each rank wrote its statistics
// before its worker arrived under the barrier lock, which the hook holds. A
// parked rank's clock is still its arrival clock and the round's maximum is
// the clock the barrier releases it at, so the hook counts for each rank the
// wait the rank adds itself once resumed (barrierOn): the sum equals the
// ranks' own figures after the barrier.
func (m *Machine) sumStats() {
	var s CommStats
	release := m.barrier.maxClock
	for _, r := range m.ranks {
		s.Add(r.stats)
		s.BarrierWaitNs += waitNs(release, r.clock)
	}
	m.statsSum = s
}

// waitNs is the wait, in whole nanoseconds, of a rank that arrives at a
// barrier at clock arrival and is released at clock release.
func waitNs(release, arrival float64) uint64 {
	return uint64(math.Round((release - arrival) * 1e9))
}

// barrierOn is Barrier with an optional completion hook: onComplete runs
// exactly once per barrier epoch, on the worker that completes the machine
// barrier, under the barrier lock, before any rank resumes. It is the barrier
// of the modelled machine: hostBarrier, counted in CommStats.Barriers and
// priced at BarrierCost.
func (r *Rank) barrierOn(onComplete func()) {
	r.stats.Barriers++
	r.hostBarrier(onComplete)
	r.clock += r.machine.cfg.Cost.BarrierCost
}

// hostBarrier is barrierOn without the count and the price: a barrier the
// host runs to publish and recycle shared buffers where the modelled machine
// synchronises by its own messages (AllReduce and ExScan's tree). It still
// moves the rank's clock to the latest arrival and records that wait in
// BarrierWaitNs, since nothing the barrier guards can finish before the last
// rank enters it.
//
// The arrival is counted on the worker running the rank and the rank yields
// to it (see scheduler.go); when a worker resumes it, the epoch is complete
// and the machine barrier's result holds the maximum clock. Rank 0's armed
// arrival fires the fault-injection trap (trapBarrier is armed, if at all,
// before Run, so the unsynchronized read cannot race with the write). A rank
// that arrives at, or is resumed from, an aborted barrier unwinds with the
// abortPanic sentinel.
func (r *Rank) hostBarrier(onComplete func()) {
	m := r.machine
	r.hostBarriers++
	if r.id == 0 && m.trapBarrier != 0 && r.hostBarriers == m.trapBarrier {
		m.Abort(m.trapErr)
	}
	if m.aborted.Load() {
		panic(abortPanic{})
	}
	w := r.worker
	if r.clock > w.maxClock {
		w.maxClock = r.clock
	}
	if onComplete != nil {
		w.onComplete = onComplete
	}
	if !r.yield(struct{}{}) || m.aborted.Load() {
		panic(abortPanic{})
	}
	r.stats.BarrierWaitNs += waitNs(m.barrier.result, r.clock)
	r.clock = m.barrier.result
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
