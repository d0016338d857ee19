// Package kmeranalysis implements the first stage of the MetaHipMer
// pipeline (Section II-B of the paper): parallel k-mer analysis.
//
// Input reads are split into overlapping k-mers; every k-mer occurrence is
// routed to its owner rank together with the bases observed immediately
// before and after it. Owners accumulate a distributed histogram of counts
// and extension observations ("Local Reads & Writes" phase on top of an
// aggregated all-to-all exchange) and use a Bloom filter to keep erroneous
// singleton k-mers out of the hash table.
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
	// streamChunk bounds how many observations a rank routes per exchange
	// round: the observation stream is processed in passes (as the real
	// system does for memory), so no rank ever materializes its full
	// inbound observation stream at once.
	streamChunk = 1024
)

// Result is the outcome of a k-mer analysis pass.
type Result struct {
	// Counts maps each retained canonical k-mer to its count and extension
	// observations.
	Counts *dht.Map[seq.Kmer, seq.KmerCount]
	// DistinctKmers is the number of distinct canonical k-mers retained.
	DistinctKmers int
}

// Observation is one k-mer occurrence shipped to its owner rank. It is
// exported (with AppendObservations) for the benchmark program's
// kmeranalysis.extract_ns_per_read probe; the pipeline produces and consumes
// it internally.
type Observation struct {
	Kmer     seq.Kmer
	Left     byte
	Right    byte
	HasLeft  bool
	HasRight bool
	WasRC    bool
}

// observationWireSize is the wire bytes of one routed observation: the
// packed k-mer (two words plus k), the two extension bases and three flags.
const observationWireSize = 22

// NewCountsMap creates the distributed k-mer counts table.
func NewCountsMap(m *pgas.Machine) *dht.Map[seq.Kmer, seq.KmerCount] {
	return dht.NewMap[seq.Kmer, seq.KmerCount](m, seq.Kmer.Hash, 40)
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
	if counts == nil {
		counts = dht.NewMapCollective[seq.Kmer, seq.KmerCount](r, seq.Kmer.Hash, 40)
	}

	// Phase 1: extract observations from local reads and route them to the
	// owners of their canonical k-mers with one aggregated exchange.
	// A read of n bases yields at most n-k+1 observations (fewer around
	// non-ACGT bases), so the per-rank buffer is sized once.
	maxObs := 0
	for _, read := range reads {
		maxObs += max(0, len(read.Seq)-opts.K+1)
	}
	local := make([]Observation, 0, maxObs)
	var codes []byte
	for _, read := range reads {
		// Append-style extraction fills the one per-rank buffer instead of
		// allocating (and then copying) a fresh observation slice per read,
		// and reuses one codes scratch across the whole read set.
		local, codes = AppendObservations(local, codes, read, opts)
		r.Compute(float64(len(read.Seq)))
	}
	totalLocal := int64(len(local))

	// Phases 1b+2, streamed: the observations are routed to their owners and
	// folded into the purely local table (use case 4) in bounded chunks —
	// every rank participates in the same number of exchange rounds, and
	// each round's inbound payload is transient (dist.Exchange releases its
	// resident charge, and the fold charges none), so no rank ever
	// materializes its full observation stream.
	// The Bloom prefilter is sized by the rank's expected INBOUND stream
	// (the global observation count over the ranks): the k-mer hash keeps
	// the inbound side balanced whatever the outbound counts are, and an
	// undersized filter would leak erroneous singletons into the table.
	totalObs := pgas.AllReduce(r, totalLocal, pgas.ReduceSum)
	var filter *bloom.Filter
	if opts.UseBloom {
		expected := uint64(totalObs) / uint64(r.NRanks())
		if expected < 1024 {
			expected = 1024
		}
		filter = bloom.NewWithEstimates(expected, bloomFPRate)
	}
	rounds := pgas.AllReduce(r, (len(local)+streamChunk-1)/streamChunk, pgas.ReduceMax)
	for ci := 0; ci < rounds; ci++ {
		lo := min(ci*streamChunk, len(local))
		hi := min(lo+streamChunk, len(local))
		part := local[lo:hi]
		owner := func(o Observation) int { return counts.Owner(o.Kmer) }
		if !opts.Aggregate {
			// Unaggregated ablation: the same exchange, but each remote
			// observation is charged as its own message (the data movement
			// is identical, only the message count differs).
			pgas.ChargeUnaggregated(r, part, func(_ int, o Observation) int { return owner(o) })
		}
		routed := dist.Exchange(r, part, owner, func(Observation) int { return observationWireSize })
		for i := range routed {
			o := &routed[i]
			if filter != nil {
				// The owner's lookup that decides whether the Bloom filter is
				// consulted; the update below charges the write, if any.
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
				kc.Observe(o.Left, o.Right, o.HasLeft, o.HasRight, o.WasRC)
				return true
			})
		}
	}
	r.Barrier()

	// Phase 3: drop k-mers below the minimum count from the local shard.
	var toDelete []seq.Kmer
	counts.ForEachLocal(r, func(km seq.Kmer, kc seq.KmerCount) {
		if kc.Count < opts.MinCount {
			toDelete = append(toDelete, km)
		}
	})
	for _, km := range toDelete {
		counts.DeleteLocal(r, km)
	}
	r.Barrier()

	// Phase 4: count the retained k-mers across ranks.
	res := Result{Counts: counts, DistinctKmers: pgas.AllReduce(r, counts.LocalLen(r.ID()), pgas.ReduceSum)}
	r.Barrier()
	return res
}

// AppendObservations splits one read into canonical k-mer observations and
// appends them to dst, returning the extended slices. The append form (same
// discipline as seq.AppendCanonicalKmers) lets the caller accumulate a whole
// read set into one per-rank buffer with no per-read allocation; codes is a
// reusable scratch the read's bases are decoded into.
//
// The extraction rolls two packed windows: each base character is decoded
// to its 2-bit code exactly once into codes, the forward k-mer is
// maintained by shifting that code in (seq.Kmer.AppendBase) while its
// reverse complement is maintained by prepending the complement code — so
// canonicalization is a 128-bit compare instead of the O(k)
// ReverseComplement rebuild Kmer.Canonical performs per window. The
// byte-loop version this replaces additionally re-decoded every neighbour
// character from ASCII.
func AppendObservations(dst []Observation, codes []byte, read seq.Read, opts Options) ([]Observation, []byte) {
	k := opts.K
	n := len(read.Seq)
	if n < k {
		return dst, codes
	}
	if cap(codes) < n {
		codes = make([]byte, n)
	} else {
		codes = codes[:n]
	}
	for i, c := range read.Seq {
		code, valid := seq.CharToBase(c)
		if !valid {
			code = 0xFF
		}
		codes[i] = code
	}
	out := dst
	km := seq.Kmer{K: uint8(k)}
	rcKm := seq.Kmer{K: uint8(k)}
	valid := 0
	for i := 0; i < n; i++ {
		code := codes[i]
		if code == 0xFF {
			valid = 0
			continue
		}
		km = km.AppendBase(code)
		rcKm = rcKm.PrependBase(seq.ComplementCode(code))
		valid++
		if valid < k {
			continue
		}
		off := i - k + 1
		var o Observation
		if rcKm.Less(km) {
			o.Kmer, o.WasRC = rcKm, true
		} else {
			o.Kmer, o.WasRC = km, false
		}
		if off > 0 {
			if lc := codes[off-1]; lc != 0xFF && qualOK(read, off-1) {
				o.Left = lc
				o.HasLeft = true
			}
		}
		if i+1 < n {
			if rc := codes[i+1]; rc != 0xFF && qualOK(read, i+1) {
				o.Right = rc
				o.HasRight = true
			}
		}
		out = append(out, o)
	}
	return out, codes
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
// (k)-mers of the previous iteration's contigs are inserted into the counts
// table as error-free k-mers with unique high-quality extensions, using the
// aggregated update-only phase. pseudoCount is the count credited to each
// contig k-mer (it only needs to clear MinCount).
func MergeContigKmers(r *pgas.Rank, counts *dht.Map[seq.Kmer, seq.KmerCount], contigSeqs [][]byte, k int, pseudoCount uint32) {
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
	for _, cs := range contigSeqs {
		if len(cs) < k {
			continue
		}
		it := seq.NewKmerIter(cs, k)
		for {
			km, off, ok := it.Next()
			if !ok {
				break
			}
			canon, wasRC := km.Canonical()
			kc := seq.KmerCount{Kmer: canon, Count: pseudoCount}
			var left, right byte
			var hasLeft, hasRight bool
			if off > 0 {
				if code, valid := seq.CharToBase(cs[off-1]); valid {
					left, hasLeft = code, true
				}
			}
			if off+k < len(cs) {
				if code, valid := seq.CharToBase(cs[off+k]); valid {
					right, hasRight = code, true
				}
			}
			// Credit the extensions with the pseudo count so they dominate
			// noise when classified.
			if wasRC {
				hasLeft, hasRight = hasRight, hasLeft
				left, right = seq.ComplementCode(right), seq.ComplementCode(left)
			}
			if hasLeft {
				kc.Left.AddN(left, pseudoCount)
			}
			if hasRight {
				kc.Right.AddN(right, pseudoCount)
			}
			u.Update(canon, kc)
		}
		r.Compute(float64(len(cs)))
	}
	u.Flush()
	r.Barrier()
}
