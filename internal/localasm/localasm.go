// Package localasm implements the local assembly stage of iterative contig
// generation (Section II-G of the paper): contigs are extended by
// "mer-walking" through the reads that align to them (or whose mates are
// projected onto them), with a dynamically adjusted mer size — upshifted at
// forks, downshifted at dead ends — and a work-sharing scheduler to balance
// the highly variable per-contig cost.
//
// Since PR 3 the contigs stay distributed: recruited reads are routed to the
// contig's owner rank with one aggregated exchange (instead of a replicated
// read pool), extension results are routed back to the owner only (instead
// of being gathered onto every rank), and the work-sharing scheduler claims
// interleaved blocks of the global ID space deterministically — each claim
// still charges a global-counter atomic, and working on a non-owned contig
// still pays the one-sided fetches of the contig and its recruited reads, so
// the cost model sees exactly what dynamic stealing would cost, while
// simulated seconds stay reproducible run to run.
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
	// MinMer and MaxMer bound the dynamic mer size.
	MinMer, MaxMer int
	// MaxExtension bounds how many bases a contig end may be extended.
	MaxExtension int
	// MinSupport is the number of read observations required to accept an
	// extension base (lower than the global k-mer analysis threshold, as the
	// paper allows uncontested extensions of lower quality).
	MinSupport int
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
	return Options{
		K:            k,
		MinMer:       k - 8,
		MaxMer:       k + 12,
		MaxExtension: 300,
		MinSupport:   2,
		WorkStealing: true,
	}
}

// normalized fills unset fields with their defaults and bounds the mer sizes
// by what the mer index can key (maxMerBases, beyond any DefaultOptions(k)
// for k <= seq.MaxK).
func (opts Options) normalized() Options {
	if opts.K <= 0 {
		opts.K = 31
	}
	if opts.MinMer <= 4 {
		opts.MinMer = 5
	}
	if opts.MaxMer <= opts.MinMer {
		opts.MaxMer = opts.MinMer + 8
	}
	opts.MaxMer = min(opts.MaxMer, maxMerBases)
	opts.MinMer = min(opts.MinMer, opts.MaxMer)
	if opts.MaxExtension <= 0 {
		opts.MaxExtension = 300
	}
	if opts.MinSupport <= 0 {
		opts.MinSupport = 2
	}
	return opts
}

// Result reports the outcome of local assembly. The extended contigs are
// written back into the distributed contig set in place (each owner updates
// its own shard); only the scalar summaries are all-reduced.
type Result struct {
	ExtendedBases  int
	ContigsTouched int
	Steals         int
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
	opts = opts.normalized()
	creader := cs.NewReader(r, 1<<16)

	// Step 1: recruitment. A read is useful for a contig if it aligns near
	// one of the contig's ends; its mate is also recruited since it may
	// extend past the end. Recruits are routed to the contig's owner rank
	// with one aggregated exchange (use case 4, "Local Reads & Writes") —
	// the owner-routed replacement of the old replicated read pool.
	// Per-library recruitment radius: endWindow plus half the library's
	// insert-size excess over the shortest library (zero for single-library
	// inputs, so legacy behavior is bit-preserved).
	libWindow := libraryWindows(opts)
	var recs []recruit
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
		r.Compute(1)
	}
	mine := dist.Exchange(r, recs,
		func(rc recruit) int { owner, _ := cs.Locate(rc.ContigID); return owner },
		recruit.WireSize)

	// Bundle the recruits per owned contig and publish the per-rank bundles
	// so the work-sharing scheduler can fetch a non-owned contig's reads
	// (charged as a one-sided get).
	myBundle := make(map[int][][]byte, len(mine))
	for _, rc := range mine {
		myBundle[rc.ContigID] = append(myBundle[rc.ContigID], rc.Seq)
	}
	r.Compute(float64(len(mine)))
	var bundles []map[int][][]byte
	if r.ID() == 0 {
		bundles = make([]map[int][][]byte, r.NRanks())
	}
	bundles = pgas.Broadcast(r, bundles)
	bundles[r.ID()] = myBundle
	r.Barrier()

	// Step 2: walk the contigs. With work sharing enabled, ranks claim
	// interleaved blocks of the dense global ID space — every claim charges
	// the global counter's atomic cost, and processing a non-owned contig
	// pays the one-sided fetches of the contig and its bundle. The
	// interleaved schedule is deterministic, so simulated seconds are
	// reproducible run to run; the charged costs match what the racy
	// counter-based scheduler paid.
	n := cs.GlobalLen(r)
	counterHandle := -1
	if opts.WorkStealing {
		var h int
		if r.ID() == 0 {
			h = r.Machine().NewAtomic(0)
		}
		counterHandle = pgas.Broadcast(r, h)
	} else {
		r.Barrier()
	}

	var exts []extRecord
	var sc scratch
	extendedBases := 0
	touched := 0
	steals := 0

	processContig := func(id int) {
		owner, idx := cs.Locate(id)
		var c dbg.Contig
		var rds [][]byte
		if owner == r.ID() {
			c = cs.Local(r)[idx]
			rds = myBundle[id]
			r.Compute(1)
		} else {
			c = creader.Get(id)
			rds = bundles[owner][id]
			if len(rds) > 0 {
				total := 0
				for _, rd := range rds {
					total += len(rd)
				}
				r.ChargeGet(owner, total, 1)
			}
		}
		if len(rds) == 0 {
			return
		}
		// Sort for determinism: the exchange accumulates read batches in
		// source-rank order, but the walk must not depend on any arrival
		// order at all. Sort a copy — the bundle is shared.
		rds = append([][]byte(nil), rds...)
		slices.SortFunc(rds, bytes.Compare)
		newSeq, added := extendContig(r, c.Seq, rds, opts, &sc)
		if added > 0 {
			exts = append(exts, extRecord{ID: id, Seq: newSeq})
			extendedBases += added
			touched++
		}
	}

	if opts.WorkStealing {
		for start := r.ID() * blockSize; start < n; start += r.NRanks() * blockSize {
			// One remote atomic per claimed block, exactly as the dynamic
			// counter would charge.
			r.AtomicFetchAdd(counterHandle, int64(blockSize))
			steals++
			end := start + blockSize
			if end > n {
				end = n
			}
			for id := start; id < end; id++ {
				processContig(id)
			}
		}
	} else {
		cs.ForEachLocal(r, func(_ int, c dbg.Contig) { processContig(c.ID) })
	}
	r.Barrier()

	// Step 3: route the extensions to the contigs' owners only — no rank
	// materializes the full extension set — and apply them owner-side.
	got := dist.Exchange(r, exts,
		func(e extRecord) int { owner, _ := cs.Locate(e.ID); return owner },
		extRecord.WireSize)
	sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
	for _, e := range got {
		_, idx := cs.Locate(e.ID)
		c := cs.Local(r)[idx]
		c.Seq = e.Seq
		cs.SetLocal(r, idx, c)
	}
	r.Barrier()

	var res Result
	res.ExtendedBases = pgas.AllReduce(r, extendedBases, pgas.ReduceSum)
	res.ContigsTouched = pgas.AllReduce(r, touched, pgas.ReduceSum)
	res.Steals = pgas.AllReduce(r, steals, pgas.ReduceSum)
	r.Barrier()
	return res
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
// the mer index (symbol stream and per-size tables) and the two walk buffers.
// Everything is cleared, not reallocated, per contig, so extending a contig
// allocates only the extended sequence it returns. One scratch serves one Run.
type scratch struct {
	index       merIndex
	right, left []byte // walk buffers: tail symbols, then the added bases
}

// extendContig mer-walks both ends of a contig using the recruited reads and
// returns the (possibly longer) sequence and the number of bases added.
func extendContig(r *pgas.Rank, contigSeq []byte, reads [][]byte, opts Options, s *scratch) ([]byte, int) {
	r.Compute(float64(len(reads) * 8))
	return extendKernel(contigSeq, reads, opts, s)
}

// extendKernel is extendContig without the simulated-clock charge: the host
// work of one contig, for the kernel benchmarks and the equivalence tests.
func extendKernel(contigSeq []byte, reads [][]byte, opts Options, s *scratch) ([]byte, int) {
	tail, right, left := s.walkEnds(contigSeq, reads, opts.normalized())
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
func (s *scratch) walkEnds(contigSeq []byte, reads [][]byte, opts Options) (tail int, right, left []byte) {
	s.index.reset(reads)
	tail = min(len(contigSeq), opts.MaxMer)
	s.right = s.index.walk(appendSyms(s.right[:0], contigSeq, tail, false), opts)
	s.left = s.index.walk(appendSyms(s.left[:0], contigSeq, tail, true), opts)
	return tail, s.right, s.left
}
