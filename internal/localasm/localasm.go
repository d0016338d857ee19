// Package localasm implements the local assembly stage of iterative contig
// generation (Section II-G of the paper): contigs are extended by
// "mer-walking" through the reads that align to them (or whose mates are
// projected onto them), with a dynamically adjusted mer size — upshifted at
// forks, downshifted at dead ends — and a work-sharing scheduler to balance
// the highly variable per-contig cost.
//
// The contigs stay distributed. Each recruited read is routed, in one
// aggregated exchange, straight to the rank that will extend its contig, and
// extension results are routed back to the contig's owner only. Without work
// sharing the extender is the owner. With it, each owner's shard is cut into
// blocks of blockSize contigs and block j of rank p's shard is extended by
// rank (p + j) mod P — a deterministic stand-in for dynamic stealing that
// charges what stealing would: one global-counter atomic per claimed block
// that holds work, and one one-sided fetch per non-owned contig with
// recruits, while simulated seconds stay reproducible run to run.
package localasm

import (
	"bytes"
	"slices"
	"sort"

	"mhmgo/internal/aligner"
	"mhmgo/internal/dbg"
	"mhmgo/internal/dist"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// Options controls local assembly.
type Options struct {
	// K is the base mer size used for walking (usually the pipeline's k).
	K int
	// Libraries, when non-empty, widens the recruitment window per library:
	// a read from library L is recruited within endWindow +
	// (L.InsertSize - minInsert)/2 of a contig end, where minInsert is the
	// smallest insert size across the libraries. A long-insert read whose
	// mate lies far beyond the contig end is still useful for extension and
	// gap closing, so its recruitment radius scales with the library's
	// geometry; with zero or one library the window is exactly endWindow
	// (the legacy behavior).
	Libraries []seq.Library
	// WorkStealing enables the dynamic work-stealing scheduler; when false
	// contigs are statically block-partitioned (ablation mode).
	WorkStealing bool
}

const (
	// shiftStep is how much the mer size is shifted up or down (L in the
	// paper) when a fork or dead end is hit.
	shiftStep = 4
	// endWindow recruits reads aligned within this many bases of a contig
	// end (plus projected mates).
	endWindow = 200
	// blockSize is the number of contigs claimed per steal.
	blockSize = 4
)

// DefaultOptions returns the local assembly defaults for mer size k.
func DefaultOptions(k int) Options {
	return Options{K: k, WorkStealing: true}
}

// walkParams bounds one mer walk: the starting mer size k, the range
// [minMer, maxMer] the dynamic mer size shifts within, the most bases a
// contig end may gain, and the read observations an extension base needs
// (lower than the global k-mer analysis threshold, as the paper allows
// uncontested extensions of lower quality).
type walkParams struct {
	k, minMer, maxMer, maxExtension, minSupport int
}

// walkParamsOf returns the walk bounds for base mer size k (31 when k is
// unset): from k-8 (at least 5) to k+12 (at most maxMerBases), 300 bases per
// end, two observations per base.
func walkParamsOf(k int) walkParams {
	if k <= 0 {
		k = 31
	}
	maxMer := min(k+12, maxMerBases)
	return walkParams{k: k, minMer: min(max(k-8, 5), maxMer), maxMer: maxMer, maxExtension: 300, minSupport: 2}
}

// Result reports the outcome of local assembly. The extended contigs are
// written back into the distributed contig set in place (each owner updates
// its own shard); ExtendedBases, the bases added over all contigs, is the one
// all-reduced scalar.
type Result struct {
	ExtendedBases int
}

// recruit is one read sequence shipped to the owner of the contig it may
// extend.
type recruit struct {
	ContigID int
	Seq      []byte
}

// WireSize returns the wire bytes of one recruit record.
func (rc recruit) WireSize() int { return 8 + len(rc.Seq) }

// extRecord is one extension result routed back to the contig's owner.
type extRecord struct {
	ID  int
	Seq []byte
}

// WireSize returns the wire bytes of one extension record.
func (e extRecord) WireSize() int { return 8 + len(e.Seq) }

// Run extends the distributed contigs using the reads aligned to them.
// Collective: every rank passes its local reads and the alignments computed
// for them; extensions are applied in place to the set's shards, and the
// scalar Result is identical on every rank.
//
// Reads must be distributed in whole pairs (use pgas.PairBlockRange) so that
// a read's mate is available on the same rank for recruitment.
func Run(r *pgas.Rank, cs *dbg.ContigSet, reads []seq.Read, readOffset int, alignments []aligner.Alignment, opts Options) Result {
	wp := walkParamsOf(opts.K)
	creader := cs.NewReader(r, 1<<16)

	// Step 1: recruitment. Recruits are routed to the rank that will extend
	// their contig with one aggregated exchange (use case 4, "Local Reads &
	// Writes"), so a recruit's bytes cross the wire once.
	recs, recruited := recruitReads(reads, readOffset, alignments, opts)
	r.Compute(float64(recruited))
	mine := dist.Exchange(r, recs,
		func(rc recruit) int { return extenderOf(rc.ContigID, r.NRanks(), opts.WorkStealing) },
		recruit.WireSize)
	byContig := make(map[int][][]byte, len(mine))
	for _, rc := range mine {
		byContig[rc.ContigID] = append(byContig[rc.ContigID], rc.Seq)
	}
	r.Compute(float64(len(mine)))
	ids := make([]int, 0, len(byContig))
	for id := range byContig {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	// The walk reads exactly these contigs: fetch the ones other ranks own
	// up front, one vectored get per owner.
	creader.Prefetch(ids)

	counterHandle := -1
	if opts.WorkStealing {
		counterHandle = pgas.Shared(r, func() int { return r.Machine().NewAtomic(0) })
	} else {
		r.Barrier()
	}

	// Step 2: walk the contigs this rank received recruits for, in ID order,
	// which visits each block's contigs together. A contig without recruits
	// is never touched.
	var exts []extRecord
	var sc scratch
	extendedBases := 0
	lastBlock := -1
	for _, id := range ids {
		owner, idx := dist.Locate(id)
		if block := dist.ID(owner, idx/blockSize); opts.WorkStealing && block != lastBlock {
			// One remote atomic per claimed block, exactly as the dynamic
			// counter would charge.
			r.AtomicFetchAdd(counterHandle, int64(blockSize))
			lastBlock = block
		}
		// An owned contig is read locally, any other one from the cache
		// the prefetch filled.
		c := creader.Get(id)
		// Sort for determinism: the exchange delivers the reads in source-rank
		// order, but the walk must not depend on any arrival order at all.
		rds := byContig[id]
		slices.SortFunc(rds, bytes.Compare)
		newSeq, added := extendContig(r, c.Seq, rds, wp, &sc)
		if added > 0 {
			exts = append(exts, extRecord{ID: id, Seq: newSeq})
			extendedBases += added
		}
	}

	// Step 3: route the extensions to the contigs' owners only — no rank
	// materializes the full extension set — and apply them owner-side. The
	// exchange's barrier holds every rank until all walks have read their
	// contigs, so no owner rewrites one that is still being read.
	got := dist.Exchange(r, exts,
		func(e extRecord) int { owner, _ := dist.Locate(e.ID); return owner },
		extRecord.WireSize)
	sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
	for _, e := range got {
		_, idx := dist.Locate(e.ID)
		c := cs.Local(r)[idx]
		c.Seq = e.Seq
		cs.SetLocal(r, idx, c)
	}

	// The all-reduce's host barriers fence the owners' writes: no rank
	// returns before every shard is updated.
	return Result{ExtendedBases: pgas.AllReduce(r, extendedBases, pgas.ReduceSum)}
}

// extenderOf returns the rank that extends contig id on a P-rank machine:
// its owner, or under work sharing rank (owner + j) mod P for the contig's
// block j of blockSize contigs in the owner's shard.
func extenderOf(id, p int, workSharing bool) int {
	owner, idx := dist.Locate(id)
	if workSharing {
		return (owner + idx/blockSize) % p
	}
	return owner
}

// recruitReads returns the recruits of the rank's alignments and how many
// alignments recruited. A read is useful for a contig if it aligns near one
// of the contig's ends; its mate is also recruited since it may extend past
// the end. The per-library recruitment radius is endWindow plus half the
// library's insert-size excess over the shortest library (zero for
// single-library inputs).
func recruitReads(reads []seq.Read, readOffset int, alignments []aligner.Alignment, opts Options) (recs []recruit, recruited int) {
	libWindow := libraryWindows(opts)
	for _, a := range alignments {
		w := endWindow
		if int(a.LibID) < len(libWindow) {
			w = libWindow[a.LibID]
		}
		// The contig length rides along in the alignment record (set at
		// extension time), so end-proximity needs no remote fetch.
		nearStart := a.ContigPos <= w
		nearEnd := a.ContigPos+a.AlignLen >= a.ContigLen-w
		if !nearStart && !nearEnd {
			continue
		}
		li := a.ReadIdx - readOffset
		if li < 0 || li >= len(reads) {
			continue
		}
		recs = append(recs, recruit{ContigID: a.ContigID, Seq: reads[li].Seq})
		// Recruit the mate: reads are interleaved pairs in *global* order
		// (global indices 2i and 2i+1 are mates).
		mateLocal := (a.ReadIdx ^ 1) - readOffset
		if mateLocal >= 0 && mateLocal < len(reads) {
			recs = append(recs, recruit{ContigID: a.ContigID, Seq: reads[mateLocal].Seq})
		}
		recruited++
	}
	return recs, recruited
}

// libraryWindows returns the per-library recruitment window (indexed by
// LibID), or nil when no library list was provided (every read then uses
// endWindow).
func libraryWindows(opts Options) []int {
	if len(opts.Libraries) == 0 {
		return nil
	}
	minInsert := opts.Libraries[0].InsertSize
	for _, lib := range opts.Libraries[1:] {
		if lib.InsertSize < minInsert {
			minInsert = lib.InsertSize
		}
	}
	out := make([]int, len(opts.Libraries))
	for i, lib := range opts.Libraries {
		extra := (lib.InsertSize - minInsert) / 2
		if extra < 0 {
			extra = 0
		}
		out[i] = endWindow + extra
	}
	return out
}

// scratch holds the per-rank buffers local assembly reuses across contigs:
// the mer index (symbol stream, position buckets and lookup memo) and the two
// walk buffers. They grow to the largest contig's bundle and are reused, not
// reallocated, so extending a contig allocates only the extended sequence it
// returns. One scratch serves one Run.
type scratch struct {
	index       merIndex
	right, left []byte // walk buffers: tail symbols, then the added bases
}

// extendContig mer-walks both ends of a contig using the recruited reads and
// returns the (possibly longer) sequence and the number of bases added.
func extendContig(r *pgas.Rank, contigSeq []byte, reads [][]byte, wp walkParams, s *scratch) ([]byte, int) {
	r.Compute(float64(len(reads) * 8))
	return extendKernel(contigSeq, reads, wp, s)
}

// extendKernel is extendContig without the simulated-clock charge: the host
// work of one contig, for the kernel benchmarks and the equivalence tests.
func extendKernel(contigSeq []byte, reads [][]byte, wp walkParams, s *scratch) ([]byte, int) {
	tail, right, left := s.walkEnds(contigSeq, reads, wp)
	added := len(right) - tail + len(left) - tail
	if added == 0 {
		return contigSeq, 0
	}
	newSeq := make([]byte, 0, len(contigSeq)+added)
	// The left walk ran on the reverse complement, so its bases come back
	// complemented, last added first.
	for i := len(left) - 1; i >= tail; i-- {
		newSeq = append(newSeq, seq.BaseToChar(seq.ComplementCode(left[i])))
	}
	newSeq = append(newSeq, contigSeq...)
	for _, code := range right[tail:] {
		newSeq = append(newSeq, seq.BaseToChar(code))
	}
	return newSeq, added
}

// walkEnds indexes the reads and walks both contig ends. It returns the two
// walk buffers — the contig's last (right) and reverse-complemented first
// (left) tail symbols followed by the 2-bit codes of the bases each walk
// added. The buffers are the scratch's own and valid until the next call.
func (s *scratch) walkEnds(contigSeq []byte, reads [][]byte, wp walkParams) (tail int, right, left []byte) {
	s.index.reset(reads, min(wp.minMer, maxSeed))
	tail = min(len(contigSeq), wp.maxMer)
	s.right = s.index.walk(appendSyms(s.right[:0], contigSeq, tail, false), wp)
	s.left = s.index.walk(appendSyms(s.left[:0], contigSeq, tail, true), wp)
	return tail, s.right, s.left
}
