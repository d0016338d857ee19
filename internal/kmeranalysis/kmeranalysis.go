// Package kmeranalysis implements the first stage of the MetaHipMer
// pipeline (Section II-B of the paper): parallel k-mer analysis.
//
// A canonical k-mer is owned by its minimizer (seq.Kmer.Minimizer): the
// smallest hash of its canonical m-mers. Consecutive k-mers of a read mostly
// share their minimizer, so each read is cut into supermers, maximal runs of
// valid k-mers with one minimizer, and each supermer ships once, packed two
// bits per base with one flank base on each side and one quality bit per
// base, to that minimizer's owner. The owner decodes the supermer into its
// k-mers and their extension bases, and accumulates a distributed histogram
// of counts and extension observations ("Local Reads & Writes" phase on top
// of an aggregated all-to-all exchange), using a Bloom filter to keep
// erroneous singleton k-mers out of the hash table. The exchange runs in
// rounds of a fixed wire-byte budget per rank, so no rank materializes its
// whole inbound stream at once.
package kmeranalysis

import (
	"mhmgo/internal/bloom"
	"mhmgo/internal/dht"
	"mhmgo/internal/dist"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// Options controls a k-mer analysis pass.
type Options struct {
	// K is the k-mer length (must be <= seq.MaxK).
	K int
	// MinCount is the minimum number of occurrences (epsilon in the paper,
	// typically 2 or 3) for a k-mer to be retained.
	MinCount uint32
	// UseBloom enables the Bloom-filter prefilter that keeps k-mers seen
	// only once out of the counting table.
	UseBloom bool
	// Aggregate false charges one message per k-mer instead of one per
	// destination and exchange round (for ablations).
	Aggregate bool
}

// DefaultOptions returns the options used by the pipeline.
func DefaultOptions(k int) Options {
	return Options{
		K:         k,
		MinCount:  2,
		UseBloom:  true,
		Aggregate: true,
	}
}

const (
	// qualThreshold is the Phred score below which an extension base is not
	// observed.
	qualThreshold = 5
	// bloomFPRate is the target false positive rate of the prefilter.
	bloomFPRate = 0.01
	// roundBytes bounds the supermer wire bytes a rank routes per exchange
	// round: the stream is processed in passes (as the real system does for
	// memory), so no rank ever materializes its full inbound stream at once.
	// It is the budget of the per-k-mer records this stage shipped before
	// supermers, 1,024 of 22 bytes.
	roundBytes = 1024 * 22
	// maxSupermerBases caps a supermer's bases, its two flanks included. A
	// longer run of k-mers that share a minimizer (a repeat, a poly-A tract)
	// is cut into pieces, which all go to the same owner.
	maxSupermerBases = 128
	// qualBit marks, in the per-read code scratch, a base that passes the
	// quality filter.
	qualBit = 4
	// noBase marks an ambiguous base in the per-read code scratch.
	noBase = 0xFF
)

// Result is the outcome of a k-mer analysis pass.
type Result struct {
	// Counts maps each retained canonical k-mer to its count and extension
	// observations.
	Counts *dht.Map[seq.Kmer, seq.KmerCount]
	// DistinctKmers is the number of distinct canonical k-mers retained.
	DistinctKmers int
}

// Observation is one k-mer occurrence as its owner folds it: the canonical
// k-mer, whether the read held its reverse complement, and the read's
// neighbouring bases where they are valid and pass the quality filter. It is
// exported (with AppendObservations) for the benchmark program's
// kmeranalysis.extract_ns_per_read probe; the pipeline decodes it from the
// supermers it receives.
type Observation struct {
	Kmer     seq.Kmer
	Left     byte
	Right    byte
	HasLeft  bool
	HasRight bool
	WasRC    bool
}

// supermer is a read's maximal run of valid k-mers that share one minimizer,
// cut at maxSupermerBases, as it travels to the minimizer's owner. It holds
// the run's bases with one flank base on each side (the bases just before
// the first k-mer and just after the last, code 0 where the read has none),
// and for each base one bit: valid and passing the quality filter, that is,
// usable as an extension. Interior bases are always valid; their bits carry
// quality only. It is a pointer-free value.
type supermer struct {
	codes  [maxSupermerBases / 32]uint64 // base i at bits 2(i%32) of word i/32
	usable [maxSupermerBases / 64]uint64 // bit i%64 of word i/64: base i is usable
	n      uint8                         // bases held, flanks included
	// minimizer routes the supermer; the owner does not need it, so it is
	// not on the wire.
	minimizer uint64
}

// wireSize is the wire bytes of a supermer: the length byte, two bits per
// base and one usable bit per base.
func (sm supermer) wireSize() int {
	n := int(sm.n)
	return 1 + (2*n+7)/8 + (n+7)/8
}

// kmers returns the number of k-mers of length k the supermer holds.
func (sm *supermer) kmers(k int) int { return int(sm.n) - k - 1 }

// code returns the 2-bit code of base i.
func (sm *supermer) code(i int) byte { return byte(sm.codes[i>>5] >> (2 * uint(i&31)) & 3) }

// usableAt reports whether base i is valid and passes the quality filter.
func (sm *supermer) usableAt(i int) bool { return sm.usable[i>>6]>>(uint(i&63))&1 != 0 }

// fill packs the n bases of br starting at position q.
func (sm *supermer) fill(br *baseRing, q, n int) {
	*sm = supermer{n: uint8(n), minimizer: sm.minimizer}
	for wi := 0; 32*wi < n; wi++ {
		sm.codes[wi] = br.codeWord(q + 32*wi)
	}
	for wi := 0; 64*wi < n; wi++ {
		sm.usable[wi] = br.usableWord(q + 64*wi)
	}
	// Clear what the last words hold past the supermer's last base.
	if r := n & 31; r != 0 {
		sm.codes[n>>5] &= 1<<(2*uint(r)) - 1
	}
	if r := n & 63; r != 0 {
		sm.usable[n>>6] &= 1<<uint(r) - 1
	}
}

// baseRing holds the last 2·maxSupermerBases bases of a read, packed as in
// a supermer one position to the right: position q holds read base q-1, so
// position 0 is the missing left flank of a run at the read's start.
// Ambiguous bases are held as unusable zeros. A supermer spans at most half
// the ring, so its bases are all still held when it closes, and packing it
// copies words instead of bases.
type baseRing struct {
	codes  [2 * maxSupermerBases / 32]uint64
	usable [2 * maxSupermerBases / 64]uint64
}

// set stores position q from a code-scratch byte. Positions are set in
// order, so entering a word clears what it held a lap ago.
func (br *baseRing) set(q int, c byte) {
	cw, uw := &br.codes[q>>5&(len(br.codes)-1)], &br.usable[q>>6&(len(br.usable)-1)]
	if q&31 == 0 {
		*cw = 0
	}
	if q&63 == 0 {
		*uw = 0
	}
	if c != noBase {
		*cw |= uint64(c&3) << (2 * uint(q&31))
		*uw |= uint64(c>>2&1) << uint(q&63)
	}
}

// codeWord returns the 32 bases starting at position q.
func (br *baseRing) codeWord(q int) uint64 {
	w, sh := q>>5, 2*uint(q&31)
	v := br.codes[w&(len(br.codes)-1)] >> sh
	if sh != 0 {
		v |= br.codes[(w+1)&(len(br.codes)-1)] << (64 - sh)
	}
	return v
}

// usableWord returns the usable bits of the 64 bases starting at position q.
func (br *baseRing) usableWord(q int) uint64 {
	w, sh := q>>6, uint(q&63)
	v := br.usable[w&(len(br.usable)-1)] >> sh
	if sh != 0 {
		v |= br.usable[(w+1)&(len(br.usable)-1)] << (64 - sh)
	}
	return v
}

// appendObservations decodes the supermer's k-mers of length k, in read
// order, and appends their observations to dst. The k-mer ending at base j
// has its left extension at base j-k and its right one at base j+1, so every
// k-mer's neighbours travel once, shared with the overlapping k-mers.
func (sm *supermer) appendObservations(dst []Observation, k int) []Observation {
	fwd, rc := seq.KmersFromWords(seq.WordAt(sm.codes[:], 1), seq.WordAt(sm.codes[:], 33), k)
	for j := k; j < int(sm.n)-1; j++ {
		if j > k {
			c := sm.code(j)
			fwd = fwd.AppendBase(c)
			rc = rc.PrependBase(seq.ComplementCode(c))
		}
		var o Observation
		if rc.Less(fwd) {
			o.Kmer, o.WasRC = rc, true
		} else {
			o.Kmer = fwd
		}
		if l := j - k; sm.usableAt(l) {
			o.Left, o.HasLeft = sm.code(l), true
		}
		if sm.usableAt(j + 1) {
			o.Right, o.HasRight = sm.code(j+1), true
		}
		dst = append(dst, o)
	}
	return dst
}

// cutSupermers cuts one read into supermers for k-mers of length k, in read
// order, handing each to emit, and returns the code scratch for reuse.
//
// Each base character is decoded once into codes (with qualBit set when the
// base passes the quality filter) and pushed into a seq.MinimizerWindow,
// which yields the minimizer of the k-mer ending at each base, the value
// seq.Kmer.Minimizer computes per key. A supermer closes where the minimizer
// changes, at an ambiguous base, at the read's end, or at maxSupermerBases.
func cutSupermers(codes []byte, read seq.Read, k int, emit func(supermer)) []byte {
	n := len(read.Seq)
	if n < k {
		return codes
	}
	if cap(codes) < n {
		codes = make([]byte, n)
	} else {
		codes = codes[:n]
	}
	for i, c := range read.Seq {
		code, valid := seq.CharToBase(c)
		switch {
		case !valid:
			code = noBase
		case qualOK(read, i):
			code |= qualBit
		}
		codes[i] = code
	}
	maxKmers := maxSupermerBases - k - 1
	win := seq.NewMinimizerWindow(k)
	var bases baseRing
	var sm supermer
	open, start := false, 0
	// A run whose first k-mer starts at read base start packs from bases'
	// position start, its left flank.
	bases.set(0, noBase)
	for i := 0; i < n; i++ {
		code := codes[i]
		bases.set(i+1, code)
		if code == noBase {
			if open {
				sm.fill(&bases, start, i-start+2)
				emit(sm)
				open = false
			}
			win.Reset()
			continue
		}
		best, full := win.Push(code & 3)
		if !full {
			continue
		}
		off := i - k + 1
		if open && best == sm.minimizer && off-start < maxKmers {
			continue
		}
		if open {
			sm.fill(&bases, start, off-start+k+1)
			emit(sm)
		}
		open, start, sm.minimizer = true, off, best
	}
	if open {
		bases.set(n+1, noBase) // the missing right flank
		sm.fill(&bases, start, n-start+2)
		emit(sm)
	}
	return codes
}

// NewCountsMap creates the distributed k-mer counts table: owned by
// minimizer, probed by seq.Kmer.Hash.
func NewCountsMap(m *pgas.Machine) *dht.Map[seq.Kmer, seq.KmerCount] {
	return dht.NewMapOwnedBy[seq.Kmer, seq.KmerCount](m, seq.Kmer.Hash, seq.Kmer.Minimizer, 40)
}

// Run performs k-mer analysis over the calling rank's block of reads. It is
// a collective operation; every rank must call it with its own reads. The
// returned Result is identical on every rank (the Counts map is shared;
// DistinctKmers is all-reduced).
func Run(r *pgas.Rank, reads []seq.Read, opts Options, counts *dht.Map[seq.Kmer, seq.KmerCount]) Result {
	if opts.K <= 0 || opts.K > seq.MaxK {
		opts.K = 31
	}
	if opts.MinCount == 0 {
		opts.MinCount = 2
	}
	k := opts.K
	if counts == nil {
		counts = pgas.Shared(r, func() *dht.Map[seq.Kmer, seq.KmerCount] { return NewCountsMap(r.Machine()) })
	}

	// Phase 1: cut the local reads into supermers, charging one op per base,
	// and pack them into rounds of at most roundBytes wire bytes each.
	var local []supermer
	var codes []byte
	occurrences := 0
	for _, read := range reads {
		codes = cutSupermers(codes, read, k, func(sm supermer) {
			local = append(local, sm)
			occurrences += sm.kmers(k)
		})
		r.Compute(float64(len(read.Seq)))
	}
	var ends []int // ends[i] is the end of round i in local
	for i, bytes := 0, 0; i < len(local); i++ {
		sz := local[i].wireSize()
		if bytes > 0 && bytes+sz > roundBytes {
			ends = append(ends, i)
			bytes = 0
		}
		bytes += sz
	}
	if len(local) > 0 {
		ends = append(ends, len(local))
	}

	// Phases 1b+2, streamed: the supermers are routed to their minimizers'
	// owners and their k-mers folded into the purely local table (use case
	// 4) round by round — every rank takes part in the same number of
	// rounds, and each round's inbound payload is transient (dist.Exchange
	// releases its resident charge, and the fold charges none), so no rank
	// ever materializes its full inbound stream.
	// The Bloom prefilter is sized by the rank's expected INBOUND stream
	// (the global k-mer occurrence count over the ranks): the minimizer hash
	// keeps the inbound side balanced whatever the outbound counts are, and
	// an undersized filter would leak erroneous singletons into the table.
	totalObs := pgas.AllReduce(r, int64(occurrences), pgas.ReduceSum)
	var filter *bloom.Filter
	if opts.UseBloom {
		expected := uint64(totalObs) / uint64(r.NRanks())
		if expected < 1024 {
			expected = 1024
		}
		filter = bloom.NewWithEstimates(expected, bloomFPRate)
	}
	owner := func(sm supermer) int { return counts.OwnerOfHash(sm.minimizer) }
	var dests []int
	var obs []Observation
	rounds := pgas.AllReduce(r, len(ends), pgas.ReduceMax)
	for ci := 0; ci < rounds; ci++ {
		var part []supermer
		if ci < len(ends) {
			lo := 0
			if ci > 0 {
				lo = ends[ci-1]
			}
			part = local[lo:ends[ci]]
		}
		if !opts.Aggregate {
			// Unaggregated ablation: the same exchange, but each remote k-mer
			// occurrence is charged as its own message (the data movement is
			// identical, only the message count differs).
			dests = dests[:0]
			for i := range part {
				for d, n := owner(part[i]), part[i].kmers(k); n > 0; n-- {
					dests = append(dests, d)
				}
			}
			pgas.ChargeUnaggregated(r, dests, func(_ int, d int) int { return d })
		}
		routed := dist.Exchange(r, part, owner, supermer.wireSize)
		for i := range routed {
			sm := &routed[i]
			r.Compute(float64(sm.n)) // decoding: one op per base
			obs = sm.appendObservations(obs[:0], k)
			for j := range obs {
				o := &obs[j]
				if filter != nil {
					// The owner's lookup that decides whether the Bloom filter
					// is consulted; the update below charges the write, if any.
					r.Compute(1)
				}
				counts.UpdateLocal(r, o.Kmer, func(kc *seq.KmerCount, found bool) bool {
					if !found {
						absorbed := uint32(0)
						if filter != nil {
							if !filter.TestAndAdd(o.Kmer.Hash()) {
								// First sighting: remember it in the filter only.
								return false
							}
							// Second sighting: credit the occurrence the filter absorbed.
							absorbed = 1
						}
						*kc = seq.KmerCount{Kmer: o.Kmer, Count: absorbed}
					}
					kc.Observe(o.Left, o.Right, o.HasLeft, o.HasRight, o.WasRC, 1)
					return true
				})
			}
		}
	}

	// Phase 3: drop k-mers below the minimum count from the local shard. It
	// touches only the rank's own partition, so no barrier orders it.
	var toDelete []seq.Kmer
	counts.ForEachLocal(r, func(km seq.Kmer, kc seq.KmerCount) {
		if kc.Count < opts.MinCount {
			toDelete = append(toDelete, km)
		}
	})
	for _, km := range toDelete {
		counts.DeleteLocal(r, km)
	}

	// Phase 4: count the retained k-mers across ranks.
	return Result{Counts: counts, DistinctKmers: pgas.AllReduce(r, counts.LocalLen(r.ID()), pgas.ReduceSum)}
}

// AppendObservations splits one read into canonical k-mer observations, in
// read order, and appends them to dst, returning the extended slices. It
// runs the pipeline's own path: the read is cut into supermers and each is
// decoded as its owner decodes it (cutSupermers, then
// supermer.appendObservations). The append form, the discipline of
// appendObservations itself, lets the caller accumulate a whole read set
// into one buffer with no per-read allocation; codes is a reusable scratch
// the read's bases are decoded into.
func AppendObservations(dst []Observation, codes []byte, read seq.Read, opts Options) ([]Observation, []byte) {
	codes = cutSupermers(codes, read, opts.K, func(sm supermer) {
		dst = sm.appendObservations(dst, opts.K)
	})
	return dst, codes
}

// qualOK reports whether the base at position i passes the quality filter
// (a read without qualities passes everywhere).
func qualOK(read seq.Read, i int) bool {
	if len(read.Qual) <= i {
		return true
	}
	return int(read.Qual[i])-33 >= qualThreshold
}

// MergeContigKmers implements the k-mer set merge of Section II-H: the
// k-mers of the previous iteration's contigs, walked by seq.CanonicalKmers
// over the pieces dbg.DealPieces dealt the calling rank, are inserted into
// the counts table as error-free k-mers with unique high-quality extensions,
// using the aggregated update-only phase. A k-mer at a piece's edge takes its
// neighbour base from the piece's flank. counts must be owned by minimizer
// (NewCountsMap): each k-mer is routed by the minimizer seq.Minimizers takes
// from the piece's rolling window, not by a scan per k-mer. pseudoCount is
// the weight each contig k-mer is observed with, its neighbours included, so
// they dominate noise when classified (it only needs to clear MinCount).
func MergeContigKmers(r *pgas.Rank, counts *dht.Map[seq.Kmer, seq.KmerCount], pieces []seq.Piece, k int, pseudoCount uint32) {
	if pseudoCount == 0 {
		pseudoCount = 2
	}
	combine := func(existing, update seq.KmerCount, found bool) seq.KmerCount {
		if !found {
			return update
		}
		// The contig k-mer only reinforces what is already there.
		existing.Count += update.Count
		existing.Left.Merge(update.Left)
		existing.Right.Merge(update.Right)
		return existing
	}
	u := counts.NewUpdater(r, combine, 1024, true)
	var mins []uint64
	for _, pc := range pieces {
		mins = seq.Minimizers(mins, pc.Seq, k)
		for canon, at := range seq.CanonicalKmers(pc.Seq, k) {
			left, hasLeft := seq.CharToBase(pc.At(at.Off - 1))
			right, hasRight := seq.CharToBase(pc.At(at.Off + k))
			kc := seq.KmerCount{Kmer: canon}
			kc.Observe(left, right, hasLeft, hasRight, at.RC, pseudoCount)
			u.UpdateWithOwnerHash(canon, mins[at.Off], kc)
		}
		r.Compute(float64(len(pc.Seq)))
	}
	// No barrier: the next stage, dbg.Build, opens with pgas.Shared's, and
	// each owner has folded what it received by the time Flush returns.
	u.Flush()
}
