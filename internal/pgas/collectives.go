// Collective operations of the virtual PGAS machine.
//
// All collectives share one discipline: data moves through the machine's
// shared buffers (the ranks really run concurrently, so barriers provide the
// happens-before edges), while *cost* is charged for the schedule the modelled
// machine runs. A Cray-class machine executes reductions in ceil(log2 P)
// rounds, not as P serialized messages to rank 0, so that is what the cost
// model charges:
//
//   - AllReduce / ExScan follow the recursive-doubling
//     (hypercube) schedule: in round k each rank exchanges its accumulator
//     with partner id XOR 2^k. With RanksPerNode a power of two the first
//     log2(RanksPerNode) rounds stay on-node and only the remaining rounds
//     pay off-node latency and bandwidth, so node-aware placement matters to
//     collectives exactly as it does to point-to-point traffic. The tree
//     synchronises by its own messages, so the two host barriers around it
//     (Rank.hostBarrier) are neither counted nor priced; they still move the
//     clock to the latest arrival, because the tree cannot finish before its
//     last rank enters.
//   - Shared is a symmetric allocation (OpenSHMEM's shmem_malloc): one
//     counted and priced barrier, in whose completion hook the object is made
//     once, and no data tree, since what every rank receives is a handle.
//   - ExchangeFunc, the personalized all-to-all, charges one aggregated send
//     per non-empty destination batch and the one barrier it runs.
//
// Scalar collectives charge scalarBytes per element. There is no all-gather:
// no pipeline stage needs every rank to hold P values.
//
// Large-P discipline: a collective allocates O(1) per rank per call, never
// O(P). The shared result (reduced value, exclusive-scan prefix table, shared
// handle) is computed exactly once per call — by the worker that completes
// the entry barrier, under the barrier lock (Rank.hostBarrier) — and every
// rank reads the same object after that barrier, before the next one
// completes. Exchanges deposit only non-empty batches into per-destination
// mailboxes (exchInbox), so a sparse communication pattern costs
// O(messages), not O(P²) slots.
package pgas

import (
	"math/bits"
	"slices"
	"sync"
)

// Number is the constraint of the typed exact reductions: any fixed-size
// numeric type. Reductions combine values natively — an int64 sum is exact
// int64 arithmetic, never a float64 round-trip.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// ReduceOp selects the combining function of an all-reduce.
type ReduceOp int

// Supported reductions.
const (
	ReduceSum ReduceOp = iota
	ReduceMax
	ReduceMin
)

func combine[T Number](op ReduceOp, a, b T) T {
	switch op {
	case ReduceMax:
		if a > b {
			return a
		}
		return b
	case ReduceMin:
		if a < b {
			return a
		}
		return b
	default:
		return a + b
	}
}

// scalarBytes is the wire size charged per element of the scalar collectives
// (AllReduce, ExScan): one 8-byte word.
const scalarBytes = 8

// exchBatch is one batch deposited into an exchange mailbox: the sending
// rank, the batch's bounds within the destination-ordered copy that sender
// published (see exchOutbox), and its wire bytes as computed by the sender's
// size function. It holds no pointer, so a deposit allocates nothing.
type exchBatch struct {
	src    int
	lo, hi int
	bytes  int
}

// exchOutbox is what a sender publishes for one exchange: a copy of its
// items in destination order, so the receiver of batch [lo, hi) copies one
// contiguous range. It is the sender's own buffer, not the caller's slice, so
// the caller may refill its items as soon as ExchangeFunc returns.
type exchOutbox[T any] struct {
	items []T
}

// outbox is an exchOutbox of any item type, as the machine stores it.
type outbox interface{ release() }

// release zeroes and empties the published items once no receiver can read
// them, so they pin nothing they point to; the buffer is kept for reuse.
func (o *exchOutbox[T]) release() {
	clear(o.items)
	o.items = o.items[:0]
}

// exchInbox is one destination rank's mailbox, double-buffered by exchange
// epoch parity (see ExchangeFunc). Senders append under the mutex before the
// exchange's barrier; the owner drains after it. Padded out to a cache line
// so concurrent deposits to neighbouring destinations do not false-share.
type exchInbox struct {
	mu      sync.Mutex
	batches [2][]exchBatch
	_       [8]byte
}

func (ib *exchInbox) put(parity int, b exchBatch) {
	ib.mu.Lock()
	ib.batches[parity] = append(ib.batches[parity], b)
	ib.mu.Unlock()
}

// radixMinKeys is the exchange size below which a comparison sort beats the
// radix passes' fixed cost of clearing and scanning 256 counters each — at
// P = 4096 most ranks route a handful of items, or none, per exchange.
const radixMinKeys = 32

// takeInbox empties this rank's mailbox of the given parity and returns every
// batch deposited there in ascending source-rank order, accounting them:
// inbound bytes for batches from other ranks, and the full received footprint
// (including the rank's own loop-back batch) against the resident meter. Must
// be called after the exchange's barrier (all deposits delivered). The
// returned slice is the mailbox's own array, recycled by the deposits of the
// exchange after next: it is valid until this rank enters another exchange.
func (r *Rank) takeInbox(parity int) []exchBatch {
	ib := &r.machine.inboxes[r.id]
	ib.mu.Lock()
	batches := ib.batches[parity]
	ib.batches[parity] = batches[:0]
	ib.mu.Unlock()
	// Deposits arrive in whatever order the senders ran; src values are
	// distinct (at most one batch per sender), so an unstable generic sort
	// gives the deterministic ascending-src order without sort.Slice's
	// reflection overhead — this runs once per rank per exchange.
	slices.SortFunc(batches, func(a, b exchBatch) int { return a.src - b.src })
	resident := 0
	for _, b := range batches {
		resident += b.bytes
		if b.src != r.id {
			r.stats.BytesReceived += uint64(b.bytes)
		}
	}
	r.ChargeResident(resident)
	return batches
}

// sortExchKeys orders an exchange's packed keys (dest<<32 | item index, built
// in item order) by destination with a byte-wise LSD radix sort over the
// bytes a destination below p occupies: O(len(keys)) with no per-rank O(P)
// scratch, closure-free, and stable by construction, so each destination's
// items keep their original order. The two key buffers are per-rank scratch
// reused by every exchange.
func (r *Rank) sortExchKeys(keys []uint64, p int) []uint64 {
	if len(keys) < radixMinKeys {
		// The keys are distinct and carry the item index in their low bits,
		// so plain ascending order is the same stable grouping.
		slices.Sort(keys)
		r.exchKeys = keys
		return keys
	}
	tmp := slices.Grow(r.exchTmp[:0], len(keys))[:len(keys)]
	for shift := uint(32); (p-1)>>(shift-32) > 0; shift += 8 {
		var next [256]int
		for _, k := range keys {
			next[byte(k>>shift)]++
		}
		// Only the digits a destination below p can have are ever counted.
		digits := min(256, (p-1)>>(shift-32)+1)
		pos := 0
		for b, c := range next[:digits] {
			next[b] = pos
			pos += c
		}
		for _, k := range keys {
			b := byte(k >> shift)
			tmp[next[b]] = k
			next[b]++
		}
		keys, tmp = tmp, keys
	}
	r.exchKeys, r.exchTmp = keys, tmp
	return keys
}

// ceilLog2 returns ceil(log2(n)) — the number of rounds of a tree
// collective over n participants.
func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// chargeDuplexHop charges one round of a recursive-doubling exchange with
// partner: a full-duplex send of sendBytes and receive of recvBytes in one
// message time. The round costs one latency plus the larger direction's
// bandwidth term (both directions move concurrently on a full-duplex link).
// Each endpoint counts only its outbound bytes toward OffNodeBytes, so
// summed over ranks every byte crossing a node boundary is counted once.
func (r *Rank) chargeDuplexHop(partner, sendBytes, recvBytes int) {
	off := !r.SameNode(partner)
	r.stats.Messages++
	r.stats.BytesSent += uint64(sendBytes)
	r.stats.BytesReceived += uint64(recvBytes)
	if off {
		r.stats.OffNodeMessages++
		r.stats.OffNodeBytes += uint64(sendBytes)
	}
	r.clock += r.machine.cfg.Cost.hop(off, 1, max(sendBytes, recvBytes))
}

// chargeRecvHop charges a receive-only hop: bytes arriving from src with no
// matching sender-side charge. Used for the fold-in rounds of
// non-power-of-two tree schedules, where a rank's hypercube partner does not
// exist but the partner's subcube does — a real algorithm (an extra fold
// round) pays a message to deliver its partial result. The receiver initiates the
// accounting, mirroring ChargeGet, so the bytes are still counted exactly
// once.
func (r *Rank) chargeRecvHop(src, bytes int) {
	off := !r.SameNode(src)
	r.stats.Messages++
	r.stats.BytesReceived += uint64(bytes)
	if off {
		r.stats.OffNodeMessages++
		r.stats.OffNodeBytes += uint64(bytes)
	}
	r.clock += r.machine.cfg.Cost.hop(off, 1, bytes)
}

// chargeAllReduceTree charges the recursive-doubling all-reduce schedule:
// ceil(log2 P) rounds, each exchanging one fixed-size accumulator with
// partner id XOR 2^k. A missing partner whose subcube partially exists costs
// a receive-only fold-in hop for its partial accumulator.
func (r *Rank) chargeAllReduceTree(bytes int) {
	p := r.machine.cfg.Ranks
	rounds := ceilLog2(p)
	for k := 0; k < rounds; k++ {
		span := 1 << k
		partner := r.id ^ span
		if partner >= p {
			if base := partner &^ (span - 1); base < p {
				r.chargeRecvHop(base, bytes)
			}
			continue
		}
		r.chargeDuplexHop(partner, bytes, bytes)
	}
}

// AllReduce combines one value per rank with the given reduction and returns
// the combined value on every rank. The reduction is exact in T's native
// arithmetic — folded once, in ascending rank order, by the worker
// completing the entry barrier — and its cost is the log2(P)-round tree
// schedule, started at the latest arrival. Its two host barriers are not
// counted or priced (see the package comment).
func AllReduce[T Number](r *Rank, x T, op ReduceOp) T {
	m := r.machine
	m.slots[r.id] = x
	r.hostBarrier(func() {
		acc := m.slots[0].(T)
		for i := 1; i < m.cfg.Ranks; i++ {
			acc = combine(op, acc, m.slots[i].(T))
		}
		m.collResult = acc
	})
	out := m.collResult.(T)
	r.chargeAllReduceTree(scalarBytes)
	r.hostBarrier(nil)
	m.slots[r.id] = nil
	return out
}

// ExScan combines the values of all ranks with a lower ID than the caller
// (an exclusive prefix scan, MPI_Exscan): rank i returns
// op(x_0, ..., x_{i-1}), and rank 0 returns T's zero value. An ExScan of
// per-rank counts is every rank's global offset (read localization's slot
// bases, cc's component numbering), and it is charged exactly like
// AllReduce: the recursive-doubling tree schedule, ceil(log2 P) rounds of one
// scalar each, not an O(P) gather. The full prefix table is built once (same
// left-to-right fold as ever, so float reductions associate identically) and
// each rank reads its own entry.
func ExScan[T Number](r *Rank, x T, op ReduceOp) T {
	m := r.machine
	m.slots[r.id] = x
	r.hostBarrier(func() {
		prefix := make([]T, m.cfg.Ranks)
		var acc T
		for i := 1; i < m.cfg.Ranks; i++ {
			v := m.slots[i-1].(T)
			if i == 1 {
				acc = v
			} else {
				acc = combine(op, acc, v)
			}
			prefix[i] = acc
		}
		m.collResult = prefix
	})
	out := m.collResult.([]T)[r.id]
	r.chargeAllReduceTree(scalarBytes)
	r.hostBarrier(nil)
	m.slots[r.id] = nil
	return out
}

// Shared returns, on every rank, the one object mk makes: the handle of
// something all ranks share (a distributed map, a global atomic, a slice of
// per-rank partitions). mk runs exactly once, in the completion hook of one
// counted and priced barrier, while every rank is parked, so it must not
// depend on which rank's mk it is. Like OpenSHMEM's symmetric shmem_malloc,
// it costs that barrier and sends nothing: a handle is not data.
func Shared[T any](r *Rank, mk func() T) T {
	m := r.machine
	r.barrierOn(func() { m.collResult = mk() })
	out, _ := m.collResult.(T)
	return out
}

// ExchangeFunc is the personalized exchange (upc_all_to_all): it routes items
// to the destination ranks chosen by destOf (reduced into [0, NRanks)) and
// returns the items this rank received, concatenated in ascending source-rank
// order with each source's items in that source's original order. sizeOf
// reports one item's wire bytes.
//
// It never materializes O(P) scratch on the caller: grouping is a radix sort
// of packed (destination, index) keys held in per-rank scratch, the sender
// copies its items in that order into a per-rank buffer it publishes, each
// batch is a range of that buffer which the receiver copies, and only
// non-empty batches are deposited, so a rank talking to d destinations costs
// O(items + d), independent of P. A personalized exchange has no tree
// shortcut — every pair must move its own data — so it is charged one
// aggregated send per non-empty destination batch, in ascending destination
// order; received batches are accounted to BytesReceived and the resident
// meter. One call routes fewer than 2^32 items.
//
// One barrier is counted, priced and run: the deposit barrier. No drain or
// reset barrier is needed to keep a sender from reusing its buffers while
// receivers still read them, because the published buffers and the mailboxes
// are double-buffered by the parity of the rank's exchange count. A sender
// rewrites the buffers of exchange e in exchange e+2, and it cannot get there
// before every rank has arrived at exchange e+1's barrier, that is, has
// finished reading exchange e. The same holds on a machine with real one-sided
// transfers, so the simulated clock charges the one barrier the host runs.
//
// The published copy of a rank's items stays on the host until that rank's
// next exchange passes its barrier, which zeroes it (exchOutbox.release): at
// most one exchange's payload per rank is held beyond the call, and the
// Machine holds the last one until it is dropped.
func ExchangeFunc[T any](r *Rank, items []T, destOf func(i int, item T) int, sizeOf func(T) int) []T {
	m := r.machine
	p := m.cfg.Ranks
	n := len(items)
	keys := slices.Grow(r.exchKeys[:0], n)[:n]
	for i, item := range items {
		d := destOf(i, item) % p
		if d < 0 {
			d += p
		}
		keys[i] = uint64(d)<<32 | uint64(i)
	}
	keys = r.sortExchKeys(keys, p)
	parity := r.exchCount & 1
	r.exchCount++
	out, ok := m.outboxes[r.id][parity].(*exchOutbox[T])
	if !ok {
		out = &exchOutbox[T]{}
		m.outboxes[r.id][parity] = out
	}
	routed := slices.Grow(out.items[:0], n)[:n]
	out.items = routed
	for start := 0; start < n; {
		d := int(keys[start] >> 32)
		end := start
		bytes := 0
		for ; end < n && int(keys[end]>>32) == d; end++ {
			routed[end] = items[uint32(keys[end])]
			bytes += sizeOf(routed[end])
		}
		m.inboxes[d].put(parity, exchBatch{src: r.id, lo: start, hi: end, bytes: bytes})
		if d != r.id {
			r.ChargeSend(d, bytes, 1)
		}
		start = end
	}
	r.Barrier()
	// Every rank has arrived here, so none still reads what this rank
	// published for its previous exchange.
	if prev := m.outboxes[r.id][parity^1]; prev != nil {
		prev.release()
	}
	batches := r.takeInbox(parity)
	total := 0
	for _, b := range batches {
		total += b.hi - b.lo
	}
	var merged []T
	if total > 0 {
		merged = make([]T, 0, total)
		for _, b := range batches {
			merged = append(merged, m.outboxes[b.src][parity].(*exchOutbox[T]).items[b.lo:b.hi]...)
		}
	}
	return merged
}

// ChargeUnaggregated charges the messages that sending items one at a time
// would add to the ExchangeFunc routing them by the same destOf: the
// exchange charges every byte and one message per non-empty remote
// destination batch, and this charges each batch's remaining messages with
// no bytes. Call it just before that exchange, and the items cost one
// message each, with every byte counted once — the unaggregated ablation's
// rule.
func ChargeUnaggregated[T any](r *Rank, items []T, destOf func(i int, item T) int) {
	p := r.machine.cfg.Ranks
	var dests []int
	for i, item := range items {
		d := destOf(i, item) % p
		if d < 0 {
			d += p
		}
		if d != r.id {
			dests = append(dests, d)
		}
	}
	slices.Sort(dests)
	for i := 1; i < len(dests); i++ {
		if dests[i] == dests[i-1] {
			r.ChargeSend(dests[i], 0, 1)
		}
	}
}
