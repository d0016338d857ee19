package localasm

import (
	"math/bits"

	"mhmgo/internal/seq"
)

// A mer is indexed as a string of 3-bit symbols: the 2-bit base code plus a
// case bit. The case bit is what keeps the index byte-for-byte equivalent to
// the string-keyed table it replaced on any input: string keys are
// case-sensitive, so a soft-masked (lower-case) read window only ever matched
// a contig tail with the same masking, while seq.ReverseComplement
// upper-cases, so the reverse strand of the same read still counted. Any
// other byte (N, IUPAC codes, garbage) is symInvalid and breaks every mer it
// falls into, exactly as the string table's ValidBases check did.
const (
	symBits     = 3
	symLower    = 4 // case bit of a symbol
	symInvalid  = 0xFF
	merKeyWords = 4
	// maxMerBases is the longest mer a key holds. seq.MaxK = 64 bounds the
	// pipeline's k, so DefaultOptions tops out at k+12 = 76 bases.
	maxMerBases = merKeyWords * 64 / symBits
)

// symCodes maps an ASCII byte to its symbol.
var symCodes [256]byte

func init() {
	for i := range symCodes {
		symCodes[i] = symInvalid
	}
	for code, c := range []byte("ACGT") {
		symCodes[c] = byte(code)
		symCodes[c|0x20] = byte(code) | symLower
	}
}

// merKey is a packed mer of up to maxMerBases symbols, the most recent
// symbol in the low bits of word 0. One layout covers every mer size, so
// there is one code path from m = 5 to m = 85.
type merKey [merKeyWords]uint64

// merMask returns the key mask selecting the low m symbols.
func merMask(m int) merKey {
	var mask merKey
	for n, w := m*symBits, 0; n > 0; n, w = n-64, w+1 {
		if n >= 64 {
			mask[w] = ^uint64(0)
		} else {
			mask[w] = uint64(1)<<uint(n) - 1
		}
	}
	return mask
}

// push rolls the window one symbol forward: the oldest symbol falls off the
// masked top, sym enters at the bottom.
func (k *merKey) push(sym byte, mask *merKey) {
	k[3] = (k[3]<<symBits | k[2]>>(64-symBits)) & mask[3]
	k[2] = (k[2]<<symBits | k[1]>>(64-symBits)) & mask[2]
	k[1] = (k[1]<<symBits | k[0]>>(64-symBits)) & mask[1]
	k[0] = (k[0]<<symBits | uint64(sym)) & mask[0]
}

func (k *merKey) hash() uint64 {
	h := k[0]*0x9E3779B97F4A7C15 ^ k[1]*0xC2B2AE3D27D4EB4F ^
		k[2]*0x165667B19E3779F9 ^ k[3]*0x27D4EB2F165667C5
	h ^= h >> 32
	return h * 0xD6E8FEB86659FD93
}

// merSlot is one open-addressing slot: a slot whose epoch is not the table's
// is empty, so clearing a table between contigs is one increment.
type merSlot struct {
	key    merKey
	epoch  uint64
	counts seq.ExtCounts
}

// merTable counts, for every mer of one size seen in the recruited reads
// (both strands), how often each base follows it.
type merTable struct {
	slots []merSlot // power-of-two length
	shift uint      // 64 - log2(len(slots)): the hash's top bits index slots
	n     int       // live slots
	epoch uint64    // merIndex.gen of the contig this table was built for
}

// minTableSlots is the smallest table: at P in the thousands most ranks
// index a handful of reads.
const minTableSlots = 1 << 8

// reset empties the table for the contig of generation gen, keeping the slot
// storage the previous contigs grew. The first contig to use the table sizes
// it from its symbol stream: the bundles big enough to matter are deep ones,
// whose mers repeat (a 20,000-symbol stream holds about 0.17 distinct mers
// per symbol), so half the stream length keeps them under half load in this
// one allocation instead of three quadruplings; a shallow bundle (up to 0.86
// per symbol) is small and quadruples once more.
func (t *merTable) reset(gen uint64, streamLen int) {
	if t.slots == nil {
		n := max(minTableSlots, 1<<bits.Len(uint(streamLen/2)))
		t.slots = make([]merSlot, n)
		t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	}
	t.epoch, t.n = gen, 0
}

// slot returns the slot holding k, or the empty slot where k belongs.
func (t *merTable) slot(k *merKey) *merSlot {
	mask := len(t.slots) - 1
	for i := int(k.hash() >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.epoch != t.epoch || s.key == *k {
			return s
		}
	}
}

func (t *merTable) add(k *merKey, code byte) {
	s := t.slot(k)
	if s.epoch != t.epoch {
		*s = merSlot{key: *k, epoch: t.epoch}
		if t.n++; 2*t.n > len(t.slots) {
			s = t.grow(k)
		}
	}
	s.counts[code]++
}

// grow quadruples the table and returns the new slot of k.
func (t *merTable) grow(k *merKey) *merSlot {
	old := t.slots
	t.slots = make([]merSlot, 4*len(old))
	t.shift -= 2
	for i := range old {
		if old[i].epoch == t.epoch {
			*t.slot(&old[i].key) = old[i]
		}
	}
	return t.slot(k)
}

// lookup returns the follower counts of k (zero if k was never seen).
func (t *merTable) lookup(k *merKey) seq.ExtCounts {
	if s := t.slot(k); s.epoch == t.epoch {
		return s.counts
	}
	return seq.ExtCounts{}
}

// merIndex is one contig's mer index: the recruited reads decoded once into
// a symbol stream, and one follower-count table per mer size, built the
// first time a walk asks for that size. A walk starts at k and shifts by
// shiftStep only at forks and dead ends, so it visits a handful of the sizes
// on the k ± j·shiftStep lattice and never any size off it; the tables of
// unvisited sizes are never built.
type merIndex struct {
	// stream holds, for every read, its forward symbols and then its
	// reverse-complement symbols, each strand closed by a symInvalid. A
	// table build is one linear pass over it: a separator resets the
	// valid-run counter exactly as an N inside a read does.
	stream []byte
	tables [maxMerBases + 1]merTable // by mer size
	gen    uint64                    // bumped per contig; tables[m].epoch == gen means built
}

// reset points the index at a new contig's recruited reads.
func (ix *merIndex) reset(reads [][]byte) {
	ix.gen++
	st := ix.stream[:0]
	for _, rd := range reads {
		st = append(appendSyms(st, rd, len(rd), false), symInvalid)
		st = append(appendSyms(st, rd, len(rd), true), symInvalid)
	}
	ix.stream = st
}

// complementSym returns the symbol seq.ComplementChar would produce: the
// complementary base in upper case, or symInvalid.
func complementSym(sym byte) byte {
	if sym == symInvalid {
		return symInvalid
	}
	return 3 - sym&3
}

// table returns the follower-count table of mer size m, building it on first
// use for the current contig.
func (ix *merIndex) table(m int) *merTable {
	t := &ix.tables[m]
	if t.epoch == ix.gen {
		return t
	}
	t.reset(ix.gen, len(ix.stream))
	mask := merMask(m)
	var key merKey
	run := 0 // valid symbols in a row before the current one
	for _, sym := range ix.stream {
		if sym == symInvalid {
			run = 0
			continue
		}
		if run >= m {
			t.add(&key, sym&3)
		}
		key.push(sym, &mask)
		run++
	}
	return t
}

// walkState classifies one extension attempt.
type walkState int

const (
	stateExtend walkState = iota
	stateFork
	stateDeadEnd
)

// nextBase classifies a mer's follower counts: the unique supported
// continuation, a fork, or a dead end.
func nextBase(counts seq.ExtCounts, minSupport int) (byte, walkState) {
	code, best, second := counts.Best()
	if int(best) < minSupport || best == 0 {
		return 0, stateDeadEnd
	}
	if int(second) >= minSupport {
		return 0, stateFork
	}
	return code, stateExtend
}

// appendSyms appends the symbols of the last n <= len(s) bases of s — or,
// with rc set, of the last n bases of its reverse complement — to dst: a
// whole read strand for the stream, or the MaxMer-base tail of a contig,
// which is all of it a walk ever reads.
func appendSyms(dst, s []byte, n int, rc bool) []byte {
	if rc {
		for i := n - 1; i >= 0; i-- {
			dst = append(dst, complementSym(symCodes[s[i]]))
		}
		return dst
	}
	for _, c := range s[len(s)-n:] {
		dst = append(dst, symCodes[c])
	}
	return dst
}

// walk extends the right end of the sequence whose tail symbols are in buf by
// mer-walking with dynamic mer-size shifting: upshift on forks, downshift on
// dead ends; terminate on a fork after a downshift, a dead end after an
// upshift, or the extension cap. It returns buf with the added bases (as
// symbols, which for an added base is its 2-bit code) appended.
func (ix *merIndex) walk(buf []byte, opts Options) []byte {
	tail := len(buf)
	m := min(max(opts.K, opts.MinMer), opts.MaxMer)
	valid := 0 // valid symbols in a row at the end of buf
	for valid < tail && buf[tail-1-valid] != symInvalid {
		valid++
	}
	// key is the last m symbols of buf; rebuilt after every shift, rolled on
	// every extension. It is only read when those m symbols are all valid.
	var key, mask merKey
	rekey := true
	lastShift := 0 // +1 upshift, -1 downshift, 0 none
	for len(buf)-tail < opts.MaxExtension && len(buf) >= m {
		state := stateDeadEnd // a mer with a non-ACGT base is in no table
		var code byte
		if valid >= m {
			if rekey {
				key, mask, rekey = merKey{}, merMask(m), false
				for _, sym := range buf[len(buf)-m:] {
					key.push(sym, &mask)
				}
			}
			code, state = nextBase(ix.table(m).lookup(&key), opts.MinSupport)
		}
		switch state {
		case stateExtend:
			buf = append(buf, code)
			key.push(code, &mask)
			valid++
			lastShift = 0
		case stateFork:
			if lastShift == -1 || m+shiftStep > opts.MaxMer {
				return buf
			}
			m += shiftStep
			lastShift, rekey = 1, true
		case stateDeadEnd:
			if lastShift == 1 || m-shiftStep < opts.MinMer {
				return buf
			}
			m -= shiftStep
			lastShift, rekey = -1, true
		}
	}
	return buf
}
