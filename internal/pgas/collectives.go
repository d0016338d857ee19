// Collective operations of the virtual PGAS machine.
//
// All collectives share one discipline: data moves through the machine's
// shared buffers (the ranks really run concurrently, so barriers provide the
// happens-before edges), while *cost* is charged as if the collective ran on
// a tree network. A Cray-class machine executes reductions and broadcasts in
// ceil(log2 P) rounds, not as P serialized messages to rank 0, so that is
// what the cost model charges:
//
//   - AllReduce / ExScan / ReduceAll follow the recursive-doubling
//     (hypercube) schedule: in round k each rank exchanges its accumulator
//     with partner id XOR 2^k. With RanksPerNode a power of two the first
//     log2(RanksPerNode) rounds stay on-node and only the remaining rounds
//     pay off-node latency and bandwidth, so node-aware placement matters to
//     collectives exactly as it does to point-to-point traffic.
//   - Broadcast follows the binomial doubling schedule rooted at rank 0: in
//     round k ranks below 2^k forward to id+2^k. Rank 0 sends every round,
//     which makes its clock the ceil(log2 P)-hop critical path.
//
// Scalar collectives charge scalarBytes per element; ReduceAll charges the
// bound its caller states for one contribution. There is no all-gather: no
// pipeline stage needs every rank to hold P values.
//
// Large-P discipline: a collective allocates O(1) per rank per call, never
// O(P). The shared result (reduced value, exclusive-scan prefix table) is
// computed exactly once per call — by the rank that completes the entry
// barrier, under the barrier lock (Rank.barrierOn) — and every rank reads the
// same object between the entry and exit barriers. Exchanges deposit only
// non-empty batches into per-destination mailboxes (exchInbox), so a sparse
// communication pattern costs O(messages), not O(P²) slots.
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
// (AllReduce, ExScan, Broadcast): one 8-byte word.
const scalarBytes = 8

// exchBatch is one batch deposited into an exchange mailbox: the sending
// rank, the batch's bounds within the destination-sorted keys that sender
// published (see exchOutbox), and its wire bytes as computed by the sender's
// size function. It holds no pointer, so a deposit allocates nothing.
type exchBatch struct {
	src    int
	lo, hi int
	bytes  int
}

// exchOutbox is what a sender publishes in its deposit slot for the
// duration of one exchange: its items, untouched, and its packed keys sorted
// by destination. The receiver of batch [lo, hi) gathers
// items[uint32(keys[j])] for j in that range, so the sender never builds a
// routed copy.
type exchOutbox[T any] struct {
	items []T
	keys  []uint64
}

// exchInbox is one destination rank's mailbox. Senders append under the
// mutex before the exchange's entry barrier; the owner drains between the
// entry and exit barriers. Padded out to a cache line so concurrent deposits
// to neighbouring destinations do not false-share.
type exchInbox struct {
	mu      sync.Mutex
	batches []exchBatch
	_       [24]byte
}

func (ib *exchInbox) put(b exchBatch) {
	ib.mu.Lock()
	ib.batches = append(ib.batches, b)
	ib.mu.Unlock()
}

// radixMinKeys is the exchange size below which a comparison sort beats the
// radix passes' fixed cost of clearing and scanning 256 counters each — at
// P = 4096 most ranks route a handful of items, or none, per exchange.
const radixMinKeys = 32

// takeInbox empties this rank's mailbox and returns every batch deposited
// there in ascending source-rank order, accounting them: inbound bytes for
// batches from other ranks, and the full received footprint (including the
// rank's own loop-back batch) against the resident meter. Must be called
// after the exchange's entry barrier (all deposits delivered). The returned
// slice is the mailbox's own array, recycled by the next exchange's deposits:
// it is valid until this rank leaves the exchange's exit barrier.
func (r *Rank) takeInbox() []exchBatch {
	ib := &r.machine.inboxes[r.id]
	ib.mu.Lock()
	batches := ib.batches
	ib.batches = batches[:0]
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

// ceilLog2 returns ceil(log2(n)) — the number of rounds of a binomial-tree
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
	c := r.machine.cfg.Cost
	off := !r.SameNode(partner)
	r.stats.Messages++
	r.stats.BytesSent += uint64(sendBytes)
	r.stats.BytesReceived += uint64(recvBytes)
	wire := sendBytes
	if recvBytes > wire {
		wire = recvBytes
	}
	if off {
		r.stats.OffNodeMessages++
		r.stats.OffNodeBytes += uint64(sendBytes)
		r.clock += c.LatencyOffNode + float64(wire)*c.ByteOffNode
	} else {
		r.clock += c.LatencyOnNode + float64(wire)*c.ByteOnNode
	}
}

// chargeRecvHop charges a receive-only hop: bytes arriving from src with no
// matching sender-side charge. Used for the fold-in rounds of
// non-power-of-two tree schedules, where a rank's hypercube partner does not
// exist but the partner's subcube does — a real algorithm (an extra fold
// round) pays a message to deliver its partial result. The receiver initiates the
// accounting, mirroring ChargeGet, so the bytes are still counted exactly
// once.
func (r *Rank) chargeRecvHop(src, bytes int) {
	c := r.machine.cfg.Cost
	off := !r.SameNode(src)
	r.stats.Messages++
	r.stats.BytesReceived += uint64(bytes)
	if off {
		r.stats.OffNodeMessages++
		r.stats.OffNodeBytes += uint64(bytes)
		r.clock += c.LatencyOffNode + float64(bytes)*c.ByteOffNode
	} else {
		r.clock += c.LatencyOnNode + float64(bytes)*c.ByteOnNode
	}
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

// chargeBroadcastTree charges the binomial doubling broadcast rooted at rank
// 0: in round k every rank with id < 2^k forwards the payload to id + 2^k.
// Senders pay a message; receivers account the incoming bytes and the
// latency of waiting for them.
func (r *Rank) chargeBroadcastTree(bytes int) {
	p := r.machine.cfg.Ranks
	c := r.machine.cfg.Cost
	rounds := ceilLog2(p)
	for k := 0; k < rounds; k++ {
		span := 1 << k
		switch {
		case r.id < span:
			if t := r.id | span; t < p {
				r.chargeDuplexHop(t, bytes, 0)
			}
		case r.id < 2*span:
			// This rank receives its copy in round k from id XOR 2^k. The
			// sender already counted the message; the receiver accounts the
			// incoming bytes and pays the wire time.
			src := r.id ^ span
			off := !r.SameNode(src)
			r.stats.BytesReceived += uint64(bytes)
			if off {
				r.clock += c.LatencyOffNode + float64(bytes)*c.ByteOffNode
			} else {
				r.clock += c.LatencyOnNode + float64(bytes)*c.ByteOnNode
			}
		}
	}
}

// AllReduce combines one value per rank with the given reduction and returns
// the combined value on every rank. The reduction is exact in T's native
// arithmetic — folded once, in ascending rank order, by the rank completing
// the entry barrier — and its cost is the log2(P)-round tree schedule.
func AllReduce[T Number](r *Rank, x T, op ReduceOp) T {
	m := r.machine
	m.slots[r.id] = x
	r.barrierOn(func() {
		acc := m.slots[0].(T)
		for i := 1; i < m.cfg.Ranks; i++ {
			acc = combine(op, acc, m.slots[i].(T))
		}
		m.collResult = acc
	})
	out := m.collResult.(T)
	r.chargeAllReduceTree(scalarBytes)
	r.Barrier()
	m.slots[r.id] = nil
	return out
}

// ExScan combines the values of all ranks with a lower ID than the caller
// (an exclusive prefix scan, MPI_Exscan): rank i returns
// op(x_0, ..., x_{i-1}), and rank 0 returns T's zero value. An ExScan of
// per-rank counts is every rank's global offset (the read offsets after
// localization, cc's component numbering), and it is charged exactly like
// AllReduce: the recursive-doubling tree schedule, ceil(log2 P) rounds of one
// scalar each, not an O(P) gather. The full prefix table is built once (same
// left-to-right fold as ever, so float reductions associate identically) and
// each rank reads its own entry.
func ExScan[T Number](r *Rank, x T, op ReduceOp) T {
	m := r.machine
	m.slots[r.id] = x
	r.barrierOn(func() {
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
	r.Barrier()
	m.slots[r.id] = nil
	return out
}

// ReduceAll combines one arbitrary mergeable value per rank — a streaming
// summary, a sketch — and returns fold(contributions in rank order) on every
// rank. It is charged like AllReduce of a payload of the given wire bytes
// (the recursive-doubling tree, ceil(log2 P) rounds), not like a gather:
// bytes must be a bound on one contribution's wire size, identical on every
// rank. No rank materializes all P contributions against the resident meter
// — at any moment a real tree reduction holds at most two partial summaries.
// fold runs exactly once, on the goroutine of the rank completing the entry
// barrier; it must be deterministic, must not mutate the contributions, and
// must not touch rank-local state. Every rank returns the same shared
// result, which must be treated as read-only.
func ReduceAll[T any](r *Rank, x T, bytes int, fold func(contribs []T) T) T {
	m := r.machine
	m.slots[r.id] = x
	r.barrierOn(func() {
		contribs := make([]T, m.cfg.Ranks)
		for i := 0; i < m.cfg.Ranks; i++ {
			contribs[i] = m.slots[i].(T)
		}
		m.collResult = fold(contribs)
	})
	out := m.collResult.(T)
	r.chargeAllReduceTree(bytes)
	r.Barrier()
	m.slots[r.id] = nil
	return out
}

// Broadcast returns rank 0's value of x on every rank, charged as a binomial
// doubling tree rooted at rank 0. The broadcast payloads in this codebase
// are handles (map pointers, atomic handles, shared slices), so the wire
// size is one word.
func Broadcast[T any](r *Rank, x T) T {
	m := r.machine
	if r.id == 0 {
		m.slots[0] = x
	}
	r.Barrier()
	out := m.slots[0].(T)
	r.chargeBroadcastTree(scalarBytes)
	r.Barrier()
	if r.id == 0 {
		m.slots[0] = nil
	}
	return out
}

// ExchangeFunc is the personalized exchange (upc_all_to_all): it routes items
// to the destination ranks chosen by destOf (reduced into [0, NRanks)) and
// returns the items this rank received, concatenated in ascending source-rank
// order with each source's items in that source's original order. sizeOf
// reports one item's wire bytes.
//
// It never materializes O(P) scratch on the caller: grouping is a radix sort
// of packed (destination, index) keys held in per-rank scratch, each batch is
// a range of those keys that the receiver gathers straight from the sender's
// items, and only non-empty batches are deposited, so a rank talking to d
// destinations costs O(items + d), independent of P. A
// personalized exchange has no tree shortcut — every pair must move its own
// data — so it is charged one aggregated send per non-empty destination
// batch, in ascending destination order; received batches are accounted to
// BytesReceived and the resident meter. The epoch is three barriers (deposit /
// drain / reset): every exchange-based stage was calibrated against that
// count. One call routes fewer than 2^32 items.
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
	m.slots[r.id] = exchOutbox[T]{items: items, keys: keys}
	for start := 0; start < n; {
		d := int(keys[start] >> 32)
		end := start
		bytes := 0
		for end < n && int(keys[end]>>32) == d {
			bytes += sizeOf(items[uint32(keys[end])])
			end++
		}
		m.inboxes[d].put(exchBatch{src: r.id, lo: start, hi: end, bytes: bytes})
		if d != r.id {
			r.ChargeSend(d, bytes, 1)
		}
		start = end
	}
	r.Barrier()
	batches := r.takeInbox()
	total := 0
	for _, b := range batches {
		total += b.hi - b.lo
	}
	var merged []T
	if total > 0 {
		merged = make([]T, 0, total)
		for _, b := range batches {
			out := m.slots[b.src].(exchOutbox[T])
			for _, key := range out.keys[b.lo:b.hi] {
				merged = append(merged, out.items[uint32(key)])
			}
		}
	}
	r.Barrier()
	// Every receiver has gathered its batches: unpin the caller's items.
	m.slots[r.id] = nil
	r.Barrier()
	return merged
}
