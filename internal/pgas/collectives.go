// Collective operations of the virtual PGAS machine.
//
// All collectives share one discipline: data moves through the machine's
// shared buffers (the ranks really run concurrently, so barriers provide the
// happens-before edges), while *cost* is charged as if the collective ran on
// a tree network. A Cray-class machine executes reductions, broadcasts and
// gathers in ceil(log2 P) rounds, not as P serialized messages to rank 0, so
// that is what the cost model charges:
//
//   - AllReduce / Gather / GatherV follow the recursive-doubling (hypercube)
//     schedule: in round k each rank exchanges its accumulated block with
//     partner id XOR 2^k. With RanksPerNode a power of two the first
//     log2(RanksPerNode) rounds stay on-node and only the remaining rounds
//     pay off-node latency and bandwidth, so node-aware placement matters to
//     collectives exactly as it does to point-to-point traffic.
//   - Broadcast follows the binomial doubling schedule rooted at rank 0: in
//     round k ranks below 2^k forward to id+2^k. Rank 0 sends every round,
//     which makes its clock the ceil(log2 P)-hop critical path.
//
// Sizes are charged honestly. GatherV charges the actual payload bytes of
// every block it forwards (the recursive-doubling block grows as 2^k ranks'
// payloads), so gathering all alignments is no longer priced like gathering
// eight integers. Scalar collectives charge scalarBytes per element.
//
// Large-P discipline: a collective allocates O(1) per rank per call, never
// O(P). The shared result (reduced value, gathered slice, exclusive-scan
// prefix table) is computed exactly once per call — by the rank that
// completes the entry barrier, under the barrier lock (Rank.barrierOn) — and
// every rank reads the same object between the entry and exit barriers.
// Returned slices are therefore shared across ranks and must be treated as
// read-only. Exchanges deposit only non-empty batches into per-destination
// mailboxes (exchInbox), so a sparse communication pattern costs O(messages),
// not O(P²) slots.
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
// (AllReduce, Broadcast, Gather of one value): one 8-byte word.
const scalarBytes = 8

// collSlot is what a rank deposits in the shared gather buffer: its payload
// and the payload's wire size, so the exact per-round block sizes of the
// tree schedule can be reconstructed after the entry barrier.
type collSlot struct {
	payload any
	bytes   int
}

// exchBatch is one batch deposited into an exchange mailbox: the sending
// rank, the batch's bounds within the destination-sorted keys that sender
// published (see exchOutbox), and its wire bytes as computed by the sender's
// size function. It holds no pointer, so a deposit allocates nothing.
type exchBatch struct {
	src    int
	lo, hi int
	bytes  int
}

// exchOutbox is what a sender publishes in its gather-buffer slot for the
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
// exist but the partner *block* does — a real algorithm (Bruck, or an extra
// fold round) pays a message to deliver it. The receiver initiates the
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

// chargeAllGatherTree charges the recursive-doubling all-gather schedule
// from the shared cumulative-size table (machine.collPrefix, filled once per
// collective by the entry barrier's completing rank): prefix[i] is the total
// payload bytes of ranks [0, i). In round k rank i holds the payloads of the
// 2^k ranks whose index differs from i only in the low k bits, and swaps
// that block with partner i XOR 2^k. On non-power-of-two machines a partner
// beyond the rank count may still front a partially existing block; the rank
// is then charged a receive-only fold-in hop for that block's real bytes.
// Block sizes are differences of the same integer prefix sums on every rank,
// so the charged floats are bit-identical to summing the per-rank sizes.
func (r *Rank) chargeAllGatherTree(prefix []int) {
	p := r.machine.cfg.Ranks
	rounds := ceilLog2(p)
	blockBytes := func(base, span int) int {
		if base >= p {
			return 0
		}
		hi := base + span
		if hi > p {
			hi = p
		}
		return prefix[hi] - prefix[base]
	}
	for k := 0; k < rounds; k++ {
		span := 1 << k
		partner := r.id ^ span
		base := partner &^ (span - 1)
		if partner >= p {
			if recv := blockBytes(base, span); recv > 0 {
				r.chargeRecvHop(base, recv)
			}
			continue
		}
		send := blockBytes(r.id&^(span-1), span)
		recv := blockBytes(base, span)
		r.chargeDuplexHop(partner, send, recv)
	}
}

// chargeAllReduceTree charges the recursive-doubling all-reduce schedule:
// ceil(log2 P) rounds, each exchanging one fixed-size accumulator with
// partner id XOR 2^k. As in chargeAllGatherTree, a missing partner whose
// subcube partially exists costs a receive-only fold-in hop for its partial
// accumulator.
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
	m.gatherBuf[r.id] = collSlot{payload: x, bytes: scalarBytes}
	r.barrierOn(func() {
		acc := m.gatherBuf[0].payload.(T)
		for i := 1; i < m.cfg.Ranks; i++ {
			acc = combine(op, acc, m.gatherBuf[i].payload.(T))
		}
		m.collResult = acc
	})
	out := m.collResult.(T)
	r.chargeAllReduceTree(scalarBytes)
	r.Barrier()
	m.gatherBuf[r.id] = collSlot{}
	return out
}

// ExScan combines the values of all ranks with a lower ID than the caller
// (an exclusive prefix scan, MPI_Exscan): rank i returns
// op(x_0, ..., x_{i-1}), and rank 0 returns T's zero value. It is the
// collective behind gather-free dense renumbering — an ExScan of per-rank
// counts is every rank's global offset — and is charged exactly like
// AllReduce: the recursive-doubling tree schedule, ceil(log2 P) rounds of one
// scalar each, not an O(P) gather. The full prefix table is built once (same
// left-to-right fold as ever, so float reductions associate identically) and
// each rank reads its own entry.
func ExScan[T Number](r *Rank, x T, op ReduceOp) T {
	m := r.machine
	m.gatherBuf[r.id] = collSlot{payload: x, bytes: scalarBytes}
	r.barrierOn(func() {
		prefix := make([]T, m.cfg.Ranks)
		var acc T
		for i := 1; i < m.cfg.Ranks; i++ {
			v := m.gatherBuf[i-1].payload.(T)
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
	m.gatherBuf[r.id] = collSlot{}
	return out
}

// ReduceAll combines one arbitrary mergeable value per rank — a streaming
// summary, a sketch — and returns fold(contributions in rank order) on every
// rank. It is charged like AllReduce of a payload of the given wire bytes
// (the recursive-doubling tree, ceil(log2 P) rounds), NOT like a gather:
// bytes must be a bound on one contribution's wire size, identical on every
// rank. No rank materializes all P contributions against the resident meter
// — at any moment a real tree reduction holds at most two partial summaries.
// fold runs exactly once, on the goroutine of the rank completing the entry
// barrier; it must be deterministic, must not mutate the contributions, and
// must not touch rank-local state. Every rank returns the same shared
// result, which must be treated as read-only.
func ReduceAll[T any](r *Rank, x T, bytes int, fold func(contribs []T) T) T {
	m := r.machine
	m.gatherBuf[r.id] = collSlot{payload: x, bytes: bytes}
	r.barrierOn(func() {
		contribs := make([]T, m.cfg.Ranks)
		for i := 0; i < m.cfg.Ranks; i++ {
			contribs[i] = m.gatherBuf[i].payload.(T)
		}
		m.collResult = fold(contribs)
	})
	out := m.collResult.(T)
	r.chargeAllReduceTree(bytes)
	r.Barrier()
	m.gatherBuf[r.id] = collSlot{}
	return out
}

// Gather collects one value from every rank and returns the slice (indexed
// by rank) on every rank, charging the all-gather tree schedule at
// scalarBytes per rank. The returned slice is one object shared by all
// ranks: treat it as read-only.
func Gather[T any](r *Rank, x T) []T {
	m := r.machine
	m.gatherBuf[r.id] = collSlot{payload: x, bytes: scalarBytes}
	r.barrierOn(func() {
		out := make([]T, m.cfg.Ranks)
		for i := 0; i < m.cfg.Ranks; i++ {
			slot := m.gatherBuf[i]
			out[i] = slot.payload.(T)
			m.collPrefix[i+1] = m.collPrefix[i] + slot.bytes
		}
		m.collResult = out
	})
	out := m.collResult.([]T)
	r.chargeAllGatherTree(m.collPrefix)
	r.Barrier()
	// Every rank has read all slots (the barrier above); releasing the
	// rank's own slot here cannot race, since only this rank writes it.
	m.gatherBuf[r.id] = collSlot{}
	return out
}

// GatherV collects a variable-length slice from every rank and returns the
// per-rank slices (indexed by source rank) on every rank. Unlike the scalar
// Gather it charges the actual payload: len(items)*bytesPerItem bytes from
// this rank, forwarded through the log2(P)-round all-gather tree, so a rank
// gathering megabytes of alignments pays for megabytes, not for P words.
// The returned outer slice is shared by all ranks: treat it as read-only.
func GatherV[T any](r *Rank, items []T, bytesPerItem int) [][]T {
	return gatherV(r, items, len(items)*bytesPerItem)
}

// GatherVFunc is GatherV for payloads whose elements have variable wire
// sizes (contigs, scaffolds): size reports the wire bytes of one item.
func GatherVFunc[T any](r *Rank, items []T, size func(T) int) [][]T {
	total := 0
	for _, it := range items {
		total += size(it)
	}
	return gatherV(r, items, total)
}

func gatherV[T any](r *Rank, items []T, localBytes int) [][]T {
	m := r.machine
	m.gatherBuf[r.id] = collSlot{payload: items, bytes: localBytes}
	r.barrierOn(func() {
		out := make([][]T, m.cfg.Ranks)
		for i := 0; i < m.cfg.Ranks; i++ {
			slot := m.gatherBuf[i]
			out[i] = slot.payload.([]T)
			m.collPrefix[i+1] = m.collPrefix[i] + slot.bytes
		}
		m.collResult = out
		m.collTotal = m.collPrefix[m.cfg.Ranks]
	})
	out := m.collResult.([][]T)
	r.chargeAllGatherTree(m.collPrefix)
	// Every rank materializes the full gathered payload: charge it against
	// the resident-bytes meter (the caller releases it when the gathered
	// data is dropped).
	r.ChargeResident(m.collTotal)
	r.Barrier()
	// See Gather: the slot is dead after the exit barrier; dropping it keeps
	// the machine from pinning the last gathered payload alive.
	m.gatherBuf[r.id] = collSlot{}
	return out
}

// Broadcast returns rank 0's value of x on every rank, charged as a binomial
// doubling tree rooted at rank 0. The broadcast payloads in this codebase
// are handles (map pointers, atomic handles, shared slices), so the wire
// size is one word.
func Broadcast[T any](r *Rank, x T) T {
	m := r.machine
	if r.id == 0 {
		m.gatherBuf[0] = collSlot{payload: x, bytes: scalarBytes}
	}
	r.Barrier()
	out := m.gatherBuf[0].payload.(T)
	r.chargeBroadcastTree(scalarBytes)
	r.Barrier()
	if r.id == 0 {
		m.gatherBuf[0] = collSlot{}
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
	m.gatherBuf[r.id].payload = exchOutbox[T]{items: items, keys: keys}
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
			out := m.gatherBuf[b.src].payload.(exchOutbox[T])
			for _, key := range out.keys[b.lo:b.hi] {
				merged = append(merged, out.items[uint32(key)])
			}
		}
	}
	r.Barrier()
	// Every receiver has gathered its batches: unpin the caller's items.
	m.gatherBuf[r.id] = collSlot{}
	r.Barrier()
	return merged
}
