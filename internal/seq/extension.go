package seq

// Extension characters summarize the bases observed adjacent to a k-mer in
// the read set. They follow the HipMer/MetaHipMer convention:
//
//	'A','C','G','T' — a unique high-quality extension with that base
//	'F'             — a fork: multiple bases contradict each other
//	'X'             — no extension observed (a dead end)
const (
	ExtFork = 'F'
	ExtNone = 'X'
)

// ExtCounts accumulates, for one side of a k-mer, how many times each base
// was observed adjacent to it in the reads.
type ExtCounts [4]uint32

// Add records an observation of base code on this side.
func (e *ExtCounts) Add(code byte) { e[code&3]++ }

// AddN records n observations of base code on this side.
func (e *ExtCounts) AddN(code byte, n uint32) { e[code&3] += n }

// Total returns the total number of observations.
func (e ExtCounts) Total() uint32 {
	return e[0] + e[1] + e[2] + e[3]
}

// Merge adds the counts from other into e.
func (e *ExtCounts) Merge(other ExtCounts) {
	for i := range e {
		e[i] += other[i]
	}
}

// Best returns the base code with the highest count, its count, and the
// count of the runner-up.
func (e ExtCounts) Best() (code byte, best, second uint32) {
	best, second = 0, 0
	code = 0
	for i, c := range e {
		if c > best {
			second = best
			best = c
			code = byte(i)
		} else if c > second {
			second = c
		}
	}
	return code, best, second
}

// Classify reduces the counts to a single extension character using the
// MetaHipMer rule: the most common base wins if the number of contradicting
// observations does not exceed the high-quality threshold thq; otherwise the
// side is a fork. A side with no observations is a dead end ('X'). minCount
// is the minimum number of supporting observations for a call.
func (e ExtCounts) Classify(minCount uint32, thq uint32) byte {
	code, best, _ := e.Best()
	total := e.Total()
	if total == 0 || best < minCount {
		return ExtNone
	}
	contradicting := total - best
	if contradicting > thq {
		return ExtFork
	}
	return BaseToChar(code)
}

// ExtPair is the two-letter extension code stored with each k-mer in the de
// Bruijn graph hash table: the unique base (or fork/none marker) immediately
// preceding and following the k-mer.
type ExtPair struct {
	Left  byte
	Right byte
}

// String renders the extension pair, e.g. "AT", "FX".
func (p ExtPair) String() string { return string([]byte{p.Left, p.Right}) }

// Swap returns the extension pair as seen from the reverse complement
// orientation: sides are exchanged and base extensions complemented.
func (p ExtPair) Swap() ExtPair {
	return ExtPair{Left: complementExt(p.Right), Right: complementExt(p.Left)}
}

func complementExt(c byte) byte {
	if code, ok := CharToBase(c); ok {
		return BaseToChar(ComplementCode(code))
	}
	return c
}

// KmerCount is the full record produced by k-mer analysis for one canonical
// k-mer: its total count and the extension observations on each side, where
// "left" and "right" are defined with respect to the canonical orientation.
type KmerCount struct {
	Kmer  Kmer
	Count uint32
	Left  ExtCounts
	Right ExtCounts
}

// Observe records n occurrences of the canonical k-mer with the given
// neighbouring bases (a read's k-mer is one; a contig's k-mer weighs a
// pseudo count). hasLeft/hasRight indicate whether a neighbour existed
// (k-mers at the very ends of reads have none). If the observed orientation
// was the reverse complement of the canonical form, wasRC must be true and
// the neighbours are swapped/complemented accordingly.
func (kc *KmerCount) Observe(leftCode, rightCode byte, hasLeft, hasRight, wasRC bool, n uint32) {
	kc.Count += n
	if wasRC {
		hasLeft, hasRight = hasRight, hasLeft
		leftCode, rightCode = ComplementCode(rightCode), ComplementCode(leftCode)
	}
	if hasLeft {
		kc.Left.AddN(leftCode, n)
	}
	if hasRight {
		kc.Right.AddN(rightCode, n)
	}
}
