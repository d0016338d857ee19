package localasm

import (
	"bytes"
	"math/bits"
	"slices"

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
	symBits    = 3
	symLower   = 4 // case bit of a symbol
	symInvalid = 0xFF
	// maxSeed is the longest seed: 21 symbols fill 63 bits of one word.
	maxSeed = 64 / symBits
	// maxMerBases bounds the mer sizes a walk may shift to. Lookups compare
	// whole windows, so nothing in the index limits the size. seq.MaxK = 64
	// bounds the pipeline's k, so walkParamsOf tops out at k+12 = 76 bases
	// and the bound binds only for a larger k.
	maxMerBases = 85
)

// symCodes maps an ASCII byte to its symbol, and rcSymCodes to the symbol
// seq.ComplementChar would produce: the complementary base in upper case.
var symCodes, rcSymCodes [256]byte

func init() {
	for i := range symCodes {
		symCodes[i], rcSymCodes[i] = symInvalid, symInvalid
	}
	for code, c := range []byte("ACGT") {
		symCodes[c] = byte(code)
		symCodes[c|0x20] = byte(code) | symLower
		rcSymCodes[c], rcSymCodes[c|0x20] = byte(3-code), byte(3-code)
	}
}

// merIndex is one contig's mer index: the recruited reads decoded once into
// a symbol stream, and the stream positions that end a valid seed and have a
// valid follower, bucketed by the seed's hash. A lookup of a mer scans the
// bucket of its last seed symbols and compares the whole window at each
// position, so one index answers every mer size a walk can shift to.
type merIndex struct {
	// stream holds, for every read, its forward symbols and then its
	// reverse-complement symbols, each strand closed by a symInvalid: a
	// separator breaks a window exactly as an N inside a read does.
	stream []byte
	seed   int  // symbols hashed per position: min(minMer, maxSeed)
	shift  uint // 64 - log2(buckets): the hash's top bits pick the bucket
	// start and pos are the buckets in CSR form: bucket b holds the positions
	// pos[start[b]:start[b+1]], in stream order. bkt is the build's bucket of
	// every stream position, -1 for a position that is indexed nowhere.
	start, pos, bkt []int32
	// memo maps (mer size, first matching position) to the counts of every
	// mer looked up for this contig: a walk through a tandem repeat asks the
	// same few mers again and again, each of whose buckets is as deep as the
	// repeat.
	memo map[uint64]seq.ExtCounts
	// lookups and compared count the lookups and the bucket positions they
	// compared since the last reset: the work the tandem-repeat test bounds.
	lookups, compared int
}

// reset indexes a new contig's recruited reads with seeds of seed symbols,
// which must not exceed any mer size the walk asks for. The arrays keep the
// storage earlier contigs grew; only the bucket heads are cleared.
func (ix *merIndex) reset(reads [][]byte, seed int) {
	n := 0
	for _, rd := range reads {
		n += 2*len(rd) + 2
	}
	st := ix.stream[:0]
	if cap(st) < n {
		st = make([]byte, 0, n)
	}
	for _, rd := range reads {
		st = append(appendSyms(st, rd, len(rd), false), symInvalid)
		st = append(appendSyms(st, rd, len(rd), true), symInvalid)
	}
	ix.stream, ix.seed = st, seed
	ix.lookups, ix.compared = 0, 0
	if ix.memo == nil {
		ix.memo = make(map[uint64]seq.ExtCounts)
	}
	clear(ix.memo)

	// Counting sort of the indexed positions by bucket, with one bucket per
	// 8 to 16 symbols: a recruited bundle is deep, so it holds far fewer
	// distinct seeds than symbols, and a lookup is rarer than an index
	// entry by two orders of magnitude.
	logB := bits.Len(uint(len(st) / 16))
	ix.shift = uint(64 - logB)
	nb := 1 << logB
	start := grown(ix.start, nb+1)
	clear(start)
	bkt := grown(ix.bkt, len(st))
	mask := uint64(1)<<(symBits*seed) - 1
	var key uint64
	run := 0 // valid symbols in a row up to the current one
	for p, sym := range st {
		bkt[p] = -1
		if sym == symInvalid {
			run = 0
			continue
		}
		key = (key<<symBits | uint64(sym)) & mask
		// A valid symbol is never last: every strand ends in a separator.
		if run++; run >= seed && st[p+1] != symInvalid {
			b := ix.bucket(key)
			bkt[p] = b
			start[b]++
		}
	}
	total := int32(0)
	for b := range nb {
		total += start[b]
		start[b] = total // the end of bucket b, until the scatter below
	}
	start[nb] = total
	pos := grown(ix.pos, int(total))
	for p := len(st) - 1; p >= 0; p-- {
		if b := bkt[p]; b >= 0 {
			start[b]--
			pos[start[b]] = int32(p)
		}
	}
	ix.start, ix.pos, ix.bkt = start, pos, bkt
}

// grown returns s resized to n, with one allocation if it lacks the capacity
// and without preserving the contents.
func grown(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// bucket returns the bucket of a packed seed.
func (ix *merIndex) bucket(key uint64) int32 {
	return int32(key * 0x9E3779B97F4A7C15 >> ix.shift)
}

// followers returns how often each base follows mer (all valid symbols, at
// least seed of them) in the recruited reads, on both strands.
func (ix *merIndex) followers(mer []byte) seq.ExtCounts {
	ix.lookups++
	var key uint64
	for _, sym := range mer[len(mer)-ix.seed:] {
		key = key<<symBits | uint64(sym)
	}
	b := ix.bucket(key)
	m := len(mer)
	var counts seq.ExtCounts
	memoKey := uint64(0) // zero until the first match sets it
	for _, p := range ix.pos[ix.start[b]:ix.start[b+1]] {
		ix.compared++
		lo := int(p) + 1 - m
		if lo < 0 || !bytes.Equal(ix.stream[lo:p+1], mer) {
			continue
		}
		if memoKey == 0 {
			memoKey = uint64(m)<<32 | uint64(p)
			if c, ok := ix.memo[memoKey]; ok {
				return c
			}
		}
		counts.Add(ix.stream[p+1])
	}
	if memoKey != 0 {
		ix.memo[memoKey] = counts
	}
	return counts
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
// whole read strand for the stream, or the maxMer-base tail of a contig,
// which is all of it a walk ever reads.
func appendSyms(dst, s []byte, n int, rc bool) []byte {
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	out := dst[at:]
	if rc {
		for i := range out {
			out[i] = rcSymCodes[s[n-1-i]]
		}
		return dst
	}
	for i, c := range s[len(s)-n:] {
		out[i] = symCodes[c]
	}
	return dst
}

// walk extends the right end of the sequence whose tail symbols are in buf by
// mer-walking with dynamic mer-size shifting: upshift on forks, downshift on
// dead ends; terminate on a fork after a downshift, a dead end after an
// upshift, or the extension cap. It returns buf with the added bases (as
// symbols, which for an added base is its 2-bit code) appended.
func (ix *merIndex) walk(buf []byte, wp walkParams) []byte {
	tail := len(buf)
	m := min(max(wp.k, wp.minMer), wp.maxMer)
	valid := 0 // valid symbols in a row at the end of buf
	for valid < tail && buf[tail-1-valid] != symInvalid {
		valid++
	}
	lastShift := 0 // +1 upshift, -1 downshift, 0 none
	for len(buf)-tail < wp.maxExtension && len(buf) >= m {
		state := stateDeadEnd // a mer with a non-ACGT base is in no read
		var code byte
		if valid >= m {
			code, state = nextBase(ix.followers(buf[len(buf)-m:]), wp.minSupport)
		}
		switch state {
		case stateExtend:
			buf = append(buf, code)
			valid++
			lastShift = 0
		case stateFork:
			if lastShift == -1 || m+shiftStep > wp.maxMer {
				return buf
			}
			m += shiftStep
			lastShift = 1
		case stateDeadEnd:
			if lastShift == 1 || m-shiftStep < wp.minMer {
				return buf
			}
			m -= shiftStep
			lastShift = -1
		}
	}
	return buf
}
