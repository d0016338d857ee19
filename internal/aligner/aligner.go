// Package aligner implements a merAligner-style distributed read-to-contig
// aligner (Sections II-F and II-I of the paper): a seed-and-extend algorithm
// over a distributed seed index. Seed lookups are aggregated (§II-A): each
// rank walks its reads' seeds, asks the owner of every distinct seed it does
// not own once per pass in one exchange, and gets the hit lists back in a
// second. Candidate contigs are read one-sidedly through a per-rank
// software cache, filled before any read is extended: every contig the
// answers name that another rank owns arrives with one vectored get per
// owner, so a pass makes at most P-1 contig gets. The read-localization
// optimization that redistributes reads by the contig they align to, so that
// subsequent iterations hit that cache instead of the network, consumes these
// alignments in core.localizePairs.
package aligner

import (
	"cmp"
	"slices"

	"mhmgo/internal/dbg"
	"mhmgo/internal/dht"
	"mhmgo/internal/dist"
	"mhmgo/internal/hashtab"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// SeedHit records one occurrence of a seed k-mer in a contig.
type SeedHit struct {
	ContigID int
	// Pos is the offset of the seed within the contig (forward strand).
	Pos int
	// Reverse is true if the canonical form of the seed is the reverse
	// complement of the contig's forward-strand seed at Pos.
	Reverse bool
}

// compareHits is the order in which an owner stores each seed's hit list.
func compareHits(a, b SeedHit) int {
	if c := cmp.Compare(a.ContigID, b.ContigID); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Pos, b.Pos); c != 0 {
		return c
	}
	return cmp.Compare(boolToInt(a.Reverse), boolToInt(b.Reverse))
}

// Alignment is a read-to-contig alignment.
type Alignment struct {
	ReadIdx   int // index of the read in the caller's read ordering
	ReadID    string
	LibID     uint8 // library tag copied from the read (seq.Read.LibID)
	ContigID  int
	ContigLen int // length of the aligned contig, recorded at extension time
	ContigPos int // start of the read projection on the contig (may be negative)
	Reverse   bool
	Matches   int
	Mismatch  int
	AlignLen  int
}

// Identity returns the fraction of aligned bases that match.
func (a Alignment) Identity() float64 {
	if a.AlignLen == 0 {
		return 0
	}
	return float64(a.Matches) / float64(a.AlignLen)
}

// Options controls index construction and alignment.
type Options struct {
	// SeedLen is the seed k-mer length. BuildIndex records it in the Index,
	// and AlignReads takes its seeds at the index's length.
	SeedLen int
	// UseCache enables the per-rank software caches: a seed that several of
	// the rank's reads share is asked of its owner once per pass, and remote
	// contigs are cached. Off (the software-cache ablation), every seed
	// occurrence is its own message and every remote contig fetch goes to
	// the owner.
	UseCache bool
	// OnlyLib, when non-nil, aligns only the reads whose LibID matches:
	// the round-based scaffolder aligns one library per round against that
	// round's contig set and skips the others' reads entirely (their
	// alignments would be discarded, and alignment is independent per
	// read, so skipping changes cost but never results). Nil aligns every
	// read.
	OnlyLib *uint8
}

const (
	// seedStride is the distance between consecutive seeds taken from a read.
	seedStride = 8
	// minAlignLen is the minimum number of aligned bases.
	minAlignLen = 20
	// minIdentity is the minimum identity for an alignment to be reported.
	minIdentity = 0.9
	// cacheEntries bounds the software contig cache size.
	cacheEntries = 1 << 17
	// maxHitsPerSeed skips seeds that occur in more than this many contig
	// positions (repeat seeds).
	maxHitsPerSeed = 32

	// seedAskWireSize is the wire bytes of one seedAsk: the k-mer's two
	// words and the slot. The asking rank is the message's source.
	seedAskWireSize = 20
	// seedAnswerWireSize is the wire bytes of a seedAnswer with no hits:
	// the slot and the hit count.
	seedAnswerWireSize = 8
	// seedHitWireSize is the wire bytes of one SeedHit in an answer: the
	// contig ID, the position and the strand.
	seedHitWireSize = 9
)

// DefaultOptions returns the aligner defaults for the given seed length.
func DefaultOptions(seedLen int) Options {
	return Options{SeedLen: seedLen, UseCache: true}
}

// Index is the distributed seed index over a distributed contig set. Neither
// the seeds nor the contig sequences are replicated. A seed is owned by its
// minimizer, the owner rule of the k-mer counts table, so a contig's
// consecutive seeds mostly share an owner and its rank sends to few ranks. The
// owner keeps the seed's hit list sorted and answers the ranks that ask for
// it by exchange, so the seed table is only ever read by its owner and is
// never frozen; contig fetches go through the set's owner-side lookup,
// fronted by a per-rank software cache during alignment.
type Index struct {
	SeedLen int
	Seeds   *dht.Map[seq.Kmer, []SeedHit]
	Contigs *dbg.ContigSet
}

// BuildIndex constructs the distributed seed index. Collective: the contigs
// are cut into pieces and dealt out evenly (dbg.DealPieces), so each rank
// indexes about its share of the set's seeds whatever contigs it owns. A
// rank routes each seed of its pieces to its minimizer's owner with the
// aggregated update-only phase, the minimizer taken from one rolling window
// per piece (seq.Minimizers), then sorts the hit lists of the seeds it owns.
func BuildIndex(r *pgas.Rank, contigs *dbg.ContigSet, opts Options) *Index {
	if opts.SeedLen <= 0 || opts.SeedLen > seq.MaxK {
		opts.SeedLen = 31
	}
	idx := &Index{SeedLen: opts.SeedLen, Contigs: contigs}
	idx.Seeds = pgas.Shared(r, func() *dht.Map[seq.Kmer, []SeedHit] {
		return dht.NewMapOwnedBy[seq.Kmer, []SeedHit](r.Machine(), seq.Kmer.Hash, seq.Kmer.Minimizer, 24)
	})
	pieces := dbg.DealPieces(r, contigs, opts.SeedLen)
	// Each update is a one-hit window, of capacity one, into one array of
	// every hit the rank sends, and a seed's first update is stored as it
	// came: a second hit then appends into a list of the owner's own. That is
	// one allocation per build where a fresh slice per update and per first
	// store made two per seed.
	combine := func(existing, update []SeedHit, found bool) []SeedHit {
		if !found {
			return update
		}
		return append(existing, update...)
	}
	u := idx.Seeds.NewUpdater(r, combine, 512, true)
	n := 0
	for _, pc := range pieces {
		n += len(pc.Seq) - opts.SeedLen + 1
	}
	hits := make([]SeedHit, n)
	var mins []uint64
	for _, pc := range pieces {
		mins = seq.Minimizers(mins, pc.Seq, opts.SeedLen)
		for canon, at := range seq.CanonicalKmers(pc.Seq, opts.SeedLen) {
			hits[at.Off] = SeedHit{ContigID: pc.ContigID, Pos: int(pc.Off) + at.Off, Reverse: at.RC}
			u.UpdateWithOwnerHash(canon, mins[at.Off], hits[at.Off:at.Off+1:at.Off+1])
		}
		hits = hits[len(mins):]
		r.Compute(float64(len(pc.Seq)))
	}
	u.Flush()
	// A hit list accumulates in the Updater's fold order, which depends on
	// the rank count and the deal. Sorting it once here makes the sequence of
	// charged contig fetches during alignment a function of the reads and the
	// contigs alone. Repeat seeds are never answered, so stay unsorted.
	idx.Seeds.RangeLocal(r.ID(), func(_ seq.Kmer, hits []SeedHit) {
		if len(hits) > 1 && len(hits) <= maxHitsPerSeed {
			slices.SortFunc(hits, compareHits)
		}
	})
	return idx
}

// AlignStats summarizes an alignment pass.
type AlignStats struct {
	ReadsAligned int
	ReadsTotal   int
	// SeedLookups counts the seeds taken from the pass's reads.
	SeedLookups uint64
	// SeedCacheHits counts the seeds answered by an earlier ask from the
	// same rank in the same pass (always 0 with UseCache off). A seed the
	// rank owns is never asked, so never counted.
	SeedCacheHits uint64
}

// seedAsk asks a seed's owner for its hit list: slot names the answer on
// the asking rank, from is the asking rank. owner is where the ask goes,
// taken from the read's minimizer window when the seed was; it routes the
// ask and is not on the wire.
type seedAsk struct {
	key   seq.Kmer
	slot  int32
	from  int32
	owner int32
}

// seedAnswer is an owner's answer to one seedAsk: the ask's slot and
// hitsOf the seed.
type seedAnswer struct {
	slot int32
	hits []SeedHit
}

func (a seedAnswer) wireSize() int { return seedAnswerWireSize + len(a.hits)*seedHitWireSize }

// seedRef is one seed taken from a read: its offset in the read, whether the
// read's k-mer was reverse-complemented to its canonical form, and the slot
// of its answer.
type seedRef struct {
	off  int32
	slot int32
	rc   bool
}

// AlignReads aligns the calling rank's block of reads against the index and
// returns the best alignment found for each read that aligns (at most one
// per read). Each alignment carries its read's library tag, and
// Options.OnlyLib restricts a pass to one library's reads — the round-based
// scaffolder uses this to align exactly the reads whose links it will
// consume against each round's contig set, instead of aligning everything
// and discarding the other libraries' output.
//
// Collective: the rank walks its reads' strided seeds and answers the ones
// it owns from its own partition. It asks the owners of the others in one
// exchange (each distinct seed once with UseCache, each occurrence as its
// own message without), and the owners answer in a second. With UseCache
// the contigs the answers name are then fetched with one vectored get per
// owner; without it each read of a remote contig is its own get. Each read
// is then extended against its seeds' answers.
func AlignReads(r *pgas.Rank, idx *Index, reads []seq.Read, readOffset int, opts Options) ([]Alignment, AlignStats) {
	opts.SeedLen = idx.SeedLen
	var stats AlignStats
	// A read's seeds are at least seedStride apart, so a read of length n
	// yields at most (n-SeedLen)/seedStride+1 of them.
	selected := make([]int, 0, len(reads)) // indices of the reads this pass aligns
	maxSeeds := 0
	for i, read := range reads {
		if opts.OnlyLib != nil && read.LibID != *opts.OnlyLib {
			continue
		}
		selected = append(selected, i)
		if n := len(read.Seq) - opts.SeedLen; n >= 0 {
			maxSeeds += n/seedStride + 1
		}
	}
	refs := make([]seedRef, 0, maxSeeds)      // every seed taken, read by read
	answers := make([][]SeedHit, 0, maxSeeds) // one per slot
	asks := make([]seedAsk, 0, maxSeeds)      // one per slot another rank answers
	ends := make([]int, len(selected))        // refs[ends[j-1]:ends[j]] are selected[j]'s seeds
	var slots hashtab.Table[seq.Kmer, int32]
	var mins []uint64
	from := int32(r.ID())
	for j, i := range selected {
		nextSeedAt := 0
		mins = seq.Minimizers(mins, reads[i].Seq, opts.SeedLen)
		for canon, at := range seq.CanonicalKmers(reads[i].Seq, opts.SeedLen) {
			if at.Off < nextSeedAt {
				continue
			}
			nextSeedAt = at.Off + seedStride
			slot := int32(len(answers))
			owner := idx.Seeds.OwnerOfHash(mins[at.Off])
			if owner == r.ID() {
				// A seed the rank owns is answered from its own partition,
				// without an ask.
				answers = append(answers, idx.hitsOf(r, canon))
			} else {
				if opts.UseCache {
					slots.Update(canon.Hash(), canon, func(v *int32, found bool) bool {
						if found {
							slot = *v
						} else {
							*v = slot
						}
						return true
					})
				}
				if int(slot) < len(answers) {
					stats.SeedCacheHits++
				} else {
					answers = append(answers, nil)
					asks = append(asks, seedAsk{key: canon, slot: slot, from: from, owner: int32(owner)})
				}
			}
			refs = append(refs, seedRef{off: int32(at.Off), slot: slot, rc: at.RC})
		}
		ends[j] = len(refs)
	}
	stats.ReadsTotal = len(selected)
	stats.SeedLookups = uint64(len(refs))
	r.Compute(float64(len(refs)))

	answerBytes := answerSeeds(r, idx, asks, answers, opts.UseCache)

	// merAligner caches contigs as well as seeds; read localization keeps a
	// rank's reads clustered by contig, so most repeat fetches hit the cache.
	contigCache := 0
	if opts.UseCache {
		contigCache = cacheEntries
	}
	creader := idx.Contigs.NewReader(r, contigCache)
	// The extensions below read exactly the contigs the answers name: fetch
	// the remote ones up front, one vectored get per owner. A seed's hits
	// cluster by contig, so skipping repeats of the previous ID keeps the
	// list short.
	var need []int
	for _, hits := range answers {
		for _, h := range hits {
			if n := len(need); n == 0 || need[n-1] != h.ContigID {
				need = append(need, h.ContigID)
			}
		}
	}
	creader.Prefetch(need)
	var out []Alignment
	// Per-rank scratch reused across every read aligned by this call: the
	// extension dedup map, the packed read/reverse-complement buffers and
	// the packed-contig cache would otherwise be reallocated once (or more)
	// per read.
	scratch := NewScratch()
	lo := 0
	for j, i := range selected {
		read := reads[i]
		best, found := alignRead(r, creader, read, refs[lo:ends[j]], answers, opts, scratch)
		lo = ends[j]
		if found {
			best.ReadIdx = readOffset + i
			best.ReadID = read.ID
			best.LibID = read.LibID
			out = append(out, best)
		}
	}
	r.ReleaseResident(answerBytes)
	stats.ReadsAligned = len(out)
	return out, stats
}

// answerSeeds routes every ask to its seed's owner, which answers from its
// own partition, and fills answers[slot] from the replies. It returns the
// bytes the replies hold against the resident meter until the caller has
// consumed them. Collective. With aggregate false every ask is charged as
// its own message.
func answerSeeds(r *pgas.Rank, idx *Index, asks []seedAsk, answers [][]SeedHit, aggregate bool) int {
	owner := func(_ int, a seedAsk) int { return int(a.owner) }
	if !aggregate {
		pgas.ChargeUnaggregated(r, asks, owner)
	}
	received := pgas.ExchangeFunc(r, asks, owner, func(seedAsk) int { return seedAskWireSize })
	replies := make([]seedAnswer, len(received))
	for i, a := range received {
		replies[i] = seedAnswer{slot: a.slot, hits: idx.hitsOf(r, a.key)}
	}
	r.ReleaseResident(len(received) * seedAskWireSize)
	back := pgas.ExchangeFunc(r, replies, func(i int, _ seedAnswer) int { return int(received[i].from) }, seedAnswer.wireSize)
	resident := 0
	for _, a := range back {
		answers[a.slot] = a.hits
		resident += a.wireSize()
	}
	return resident
}

// hitsOf answers one seed the calling rank owns from its own partition: its
// stored hit list, or none for a seed that is absent or repeats more than
// maxHitsPerSeed times.
func (idx *Index) hitsOf(r *pgas.Rank, key seq.Kmer) []SeedHit {
	hits, _ := idx.Seeds.GetLocal(r, key)
	if len(hits) > maxHitsPerSeed {
		return nil
	}
	return hits
}

// Scratch holds the per-rank buffers reused across the reads of one
// AlignReads pass: the extension dedup map, the packed forms of the current
// read (forward and reverse complement, refreshed by BeginRead) and the
// packed-contig cache. It is exported (with NewScratch and BeginRead) so the
// benchmark program's aligner.extend_ns probe can drive the extend kernel
// directly.
type Scratch struct {
	tried map[[3]int]bool // (contig, projected start, strand) triples already extended

	readFwd seq.Packed // packed current read
	readRC  seq.Packed // packed reverse complement of the current read

	// packs caches the packed form of every contig this pass has extended
	// against, keyed by contig ID — the packed side of the seed index. A
	// contig is packed once per pass on first use and reused by every read
	// that seeds on it (read localization clusters a rank's reads by contig,
	// so most reads hit the same few contigs). The last-used entry is
	// memoized outside the map: a seed's sorted hit list clusters candidates
	// by contig, so most lookups are repeats of the previous one.
	packs     map[int]seq.Packed
	lastID    int
	lastPack  seq.Packed
	lastValid bool
}

// NewScratch returns an empty Scratch ready for BeginRead.
func NewScratch() *Scratch {
	return &Scratch{
		tried: make(map[[3]int]bool),
		packs: make(map[int]seq.Packed),
	}
}

// BeginRead points the scratch at a new read: the packed forward form and
// its reverse complement are computed once here and reused across every
// candidate extension of the read.
func (s *Scratch) BeginRead(readSeq []byte) {
	s.readFwd.SetASCII(readSeq)
	s.readRC.SetReverseComplementOf(s.readFwd)
}

// packedFor returns the cached packed form of the contig, packing it on
// first use. The pointer is to the memoized last entry, so it holds until
// the next call.
func (s *Scratch) packedFor(contig dbg.Contig) *seq.Packed {
	if s.lastValid && s.lastID == contig.ID {
		return &s.lastPack
	}
	p, cached := s.packs[contig.ID]
	if !cached {
		p = seq.PackASCII(contig.Seq)
		s.packs[contig.ID] = p
	}
	s.lastID, s.lastPack, s.lastValid = contig.ID, p, true
	return &s.lastPack
}

// alignRead extends one read against the answers to its seeds, in the order
// the seeds were taken and each seed's hits in their stored order, and
// returns its best alignment.
func alignRead(r *pgas.Rank, creader *dist.Reader[dbg.Contig], read seq.Read, seeds []seedRef, answers [][]SeedHit, opts Options, scratch *Scratch) (Alignment, bool) {
	var best Alignment
	var bestContig dbg.Contig
	found := false
	scratch.BeginRead(read.Seq)
	tried := scratch.tried
	clear(tried)
	for _, s := range seeds {
		off := int(s.off)
		for _, h := range answers[s.slot] {
			contig := creader.Get(h.ContigID)
			// The read aligns to the contig's reverse strand when exactly one
			// of (read seed canonicalization, contig seed canonicalization)
			// flipped orientation.
			reverse := s.rc != h.Reverse
			key := [3]int{h.ContigID, projectedStart(len(read.Seq), h, off, reverse, opts), boolToInt(reverse)}
			if tried[key] {
				continue
			}
			tried[key] = true
			a, ok := extend(read.Seq, contig, h, off, reverse, opts, scratch)
			r.Compute(float64(a.AlignLen))
			if !ok {
				continue
			}
			if !found || betterAlignment(a, contig, best, bestContig) {
				best = a
				bestContig = contig
				found = true
			}
		}
	}
	return best, found
}

// betterAlignment is the total order used to select a read's best alignment.
// Contig IDs, and so the order of a seed's hits, depend on the rank count,
// so the winner must be a pure function of the candidate set: most
// matches first, ties broken by the target contig's content (never by its
// ID, whose numbering depends on the rank count — a read tied between two
// rRNA copies must pick the same copy on any machine), then by coordinates.
func betterAlignment(a Alignment, ca dbg.Contig, b Alignment, cb dbg.Contig) bool {
	if a.Matches != b.Matches {
		return a.Matches > b.Matches
	}
	if a.ContigID != b.ContigID &&
		(len(ca.Seq) != len(cb.Seq) || string(ca.Seq) != string(cb.Seq)) {
		return dbg.ContigLess(ca, cb)
	}
	if a.ContigPos != b.ContigPos {
		return a.ContigPos < b.ContigPos
	}
	if a.Reverse != b.Reverse {
		return !a.Reverse
	}
	// Only reachable when the two targets are byte-identical contigs at the
	// same position and orientation: either choice is the same content, and
	// the ID comparison just makes the order total within one run.
	return a.ContigID < b.ContigID
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// projectedStart returns where the oriented read, whose seed at seedOff hit
// the contig at hit.Pos, starts on the contig's forward strand. On the
// reverse strand the seed sits at readLen-seedOff-SeedLen of the oriented
// read. Every seed of a read on one diagonal projects the same start, so the
// start, not hit.Pos-seedOff, names the candidate alignment.
func projectedStart(readLen int, hit SeedHit, seedOff int, reverse bool, opts Options) int {
	if reverse {
		return hit.Pos + seedOff + opts.SeedLen - readLen
	}
	return hit.Pos - seedOff
}

// extend performs ungapped extension of a seed match and scores it
// word-at-a-time: seq.MismatchCount compares 32 bases per XOR+popcount step
// between the contig's packed form and the read orientation precomputed by
// BeginRead, and an ambiguous base on either side (a read's N, a scaffold
// gap's N run) is a mismatch. The ungapped alignment covers the contiguous
// read positions whose contig projection start+i lands inside the contig, so
// alignLen is an interval length and matches = alignLen − mismatches.
func extend(readSeq []byte, contig dbg.Contig, hit SeedHit, seedOff int, reverse bool, opts Options, s *Scratch) (Alignment, bool) {
	rp := &s.readFwd
	if reverse {
		rp = &s.readRC
	}
	readLen := len(readSeq)
	start := projectedStart(readLen, hit, seedOff, reverse, opts)
	lo := 0
	if start < 0 {
		lo = -start
	}
	hi := readLen
	if m := len(contig.Seq) - start; m < hi {
		hi = m
	}
	matches, mismatches, alignLen := 0, 0, 0
	if hi > lo {
		alignLen = hi - lo
		mismatches = seq.MismatchCount(rp, s.packedFor(contig), lo, start+lo, alignLen)
		matches = alignLen - mismatches
	}
	a := Alignment{
		ContigID:  contig.ID,
		ContigLen: len(contig.Seq),
		ContigPos: start,
		Reverse:   reverse,
		Matches:   matches,
		Mismatch:  mismatches,
		AlignLen:  alignLen,
	}
	if alignLen < minAlignLen || a.Identity() < minIdentity {
		return a, false
	}
	return a, true
}

// ExtendKernel exposes the seed-extension kernel for the benchmark program's
// aligner.extend_ns probe and the equivalence tests: it scores one candidate
// (contig, hit, orientation) for the read most recently passed to
// s.BeginRead. The pipeline reaches the same code through AlignReads.
func ExtendKernel(readSeq []byte, contig dbg.Contig, hit SeedHit, seedOff int, reverse bool, opts Options, s *Scratch) (Alignment, bool) {
	return extend(readSeq, contig, hit, seedOff, reverse, opts, s)
}
