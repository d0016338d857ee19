package localasm

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"mhmgo/internal/aligner"
	"mhmgo/internal/dbg"
	"mhmgo/internal/dist"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// genome returns a synthetic genome with no long repeats.
func genome() string {
	return "ACGTTGCAAGCTTACGGATCCGTAAACTGGTCCATTGGCAACGGTATTCCAGGAATTCACAGGCTTAAGCCTGAATCGTAGGCATCAGTTGACCAATTCGGA"
}

// pairedReads tiles the genome with interleaved forward/reverse read pairs.
func pairedReads(g string, readLen, frag, step int) []seq.Read {
	var reads []seq.Read
	for start := 0; start+frag <= len(g); start += step {
		fwd := g[start : start+readLen]
		rev := string(seq.ReverseComplement([]byte(g[start+frag-readLen : start+frag])))
		reads = append(reads,
			seq.Read{ID: "p/1", Seq: []byte(fwd)},
			seq.Read{ID: "p/2", Seq: []byte(rev)},
		)
	}
	return reads
}

// asmOut is the scalar Result plus the extended contigs emitted to rank 0
// (sorted by descending length, then sequence), the remote gets and atomics
// Run charged over all ranks, the barriers it counted per rank (equal on
// every rank), how many distinct contigs received recruits on a rank other
// than their owner, how many distinct (extender, owner) pairs those walks
// span, and how many distinct blocks of blockSize contigs held a contig with
// recruits.
type asmOut struct {
	Result
	Contigs         []dbg.Contig
	RemoteGets      uint64
	AtomicOps       uint64
	Barriers        uint64
	NonLocalWalks   int
	NonLocalSources int
	WalkedBlocks    int
}

func runLocalAssembly(t *testing.T, contigs []dbg.Contig, reads []seq.Read, ranks int, opts Options) asmOut {
	t.Helper()
	m := pgas.NewMachine(pgas.Config{Ranks: ranks})
	aopts := aligner.DefaultOptions(15)
	var res asmOut
	gets, atomics := make([]uint64, ranks), make([]uint64, ranks)
	recruited := make([][]recruit, ranks)
	m.Run(func(r *pgas.Rank) {
		lo, hi := r.BlockRange(len(contigs))
		cs := dbg.DistributeContigs(r, contigs[lo:hi], dist.Distributed)
		idx := aligner.BuildIndex(r, cs, aopts)
		plo, phi := r.PairBlockRange(len(reads))
		aligns, _ := aligner.AlignReads(r, idx, reads[plo:phi], plo, aopts)
		before := r.Stats()
		got := Run(r, cs, reads[plo:phi], plo, aligns, opts)
		after := r.Stats()
		gets[r.ID()] = after.RemoteGets - before.RemoteGets
		atomics[r.ID()] = after.AtomicOps - before.AtomicOps
		if r.ID() == 0 {
			res.Barriers = after.Barriers - before.Barriers
		}
		recruited[r.ID()], _ = recruitReads(reads[plo:phi], plo, aligns, opts)
		all := cs.Emit(r)
		if r.ID() == 0 {
			sort.Slice(all, func(i, j int) bool { return dbg.ContigLess(all[i], all[j]) })
			res.Result, res.Contigs = got, all
		}
	})
	walked := map[int]bool{}
	for rank := range recruited {
		res.RemoteGets += gets[rank]
		res.AtomicOps += atomics[rank]
		for _, rc := range recruited[rank] {
			walked[rc.ContigID] = true
		}
	}
	blocks := map[int]bool{}
	sources := map[[2]int]bool{}
	for id := range walked {
		owner, idx := dist.Locate(id)
		if ext := extenderOf(id, ranks, opts.WorkStealing); ext != owner {
			res.NonLocalWalks++
			sources[[2]int{ext, owner}] = true
		}
		blocks[dist.ID(owner, idx/blockSize)] = true
	}
	res.WalkedBlocks = len(blocks)
	res.NonLocalSources = len(sources)
	return res
}

func TestExtendsTruncatedContig(t *testing.T) {
	g := genome()
	// The contig covers only the middle of the genome; reads cover all of it,
	// so mer-walking should extend the contig toward both genome ends.
	contig := dbg.Contig{ID: 0, Seq: []byte(g[30:70]), Depth: 20}
	reads := pairedReads(g, 30, 60, 2)
	res := runLocalAssembly(t, []dbg.Contig{contig}, reads, 3, DefaultOptions(21))
	ext := string(res.Contigs[0].Seq)
	if len(ext) <= 40 {
		t.Fatalf("contig not extended: %d bases", len(ext))
	}
	if res.ExtendedBases != len(ext)-40 {
		t.Errorf("ExtendedBases = %d, but the contig grew by %d", res.ExtendedBases, len(ext)-40)
	}
	// The extended contig must remain a substring of the genome (or its
	// reverse complement): mer-walking must not invent sequence.
	if !strings.Contains(g, ext) && !strings.Contains(g, string(seq.ReverseComplement([]byte(ext)))) {
		t.Errorf("extended contig is not a substring of the genome:\n%s", ext)
	}
}

func TestNoReadsMeansNoExtension(t *testing.T) {
	contig := dbg.Contig{ID: 0, Seq: []byte(genome()[10:60]), Depth: 20}
	opts := DefaultOptions(21)
	res := runLocalAssembly(t, []dbg.Contig{contig}, nil, 2, opts)
	if res.ExtendedBases != 0 {
		t.Errorf("extension without reads: %+v", res)
	}
	if string(res.Contigs[0].Seq) != genome()[10:60] {
		t.Error("contig modified without reads")
	}
}

// TestWorkStealingMatchesStatic: the work-sharing schedule extends every
// contig exactly as the owners do, and its charges are what the schedule
// needs and no more — one one-sided vectored get per distinct owner of the
// contigs a rank walks for other ranks and one counter atomic per block that
// holds work, so a contig without recruits costs nothing.
func TestWorkStealingMatchesStatic(t *testing.T) {
	// Contigs cut every 150 bases out of a random genome, with gaps for the
	// walks to fill; on 2 ranks each owner holds several blocks, so work
	// sharing hands some of them to the other rank.
	g := string(randBases(rand.New(rand.NewSource(27)), 4000))
	var contigs []dbg.Contig
	for start := 0; start+60 <= len(g); start += 150 {
		contigs = append(contigs, dbg.Contig{Seq: []byte(g[start : start+60]), Depth: 20})
	}
	reads := pairedReads(g, 30, 60, 3)
	dynamic := DefaultOptions(21)
	static := DefaultOptions(21)
	static.WorkStealing = false
	resDyn := runLocalAssembly(t, contigs, reads, 2, dynamic)
	resStat := runLocalAssembly(t, contigs, reads, 2, static)
	if resDyn.ExtendedBases != resStat.ExtendedBases {
		t.Errorf("work stealing changed the result: %d vs %d extended bases",
			resDyn.ExtendedBases, resStat.ExtendedBases)
	}
	for i := range contigs {
		if string(resDyn.Contigs[i].Seq) != string(resStat.Contigs[i].Seq) {
			t.Errorf("contig %d differs between schedulers", i)
		}
	}
	if resDyn.AtomicOps != uint64(resDyn.WalkedBlocks) {
		t.Errorf("work sharing charged %d counter atomics for %d blocks with work", resDyn.AtomicOps, resDyn.WalkedBlocks)
	}
	if resStat.AtomicOps != 0 {
		t.Errorf("static scheduler charged %d atomics, want 0", resStat.AtomicOps)
	}
	if resDyn.NonLocalWalks == 0 {
		t.Fatal("no contig was walked away from its owner: the test exercises nothing")
	}
	// Three barriers each: the two exchanges' and the counter's Shared
	// under work sharing, the explicit barrier standing in for it without.
	// The all-reduce that ends Run counts none.
	for name, res := range map[string]asmOut{"work sharing": resDyn, "static": resStat} {
		if res.Barriers != 3 {
			t.Errorf("%s: Run counted %d barriers per rank, want 3", name, res.Barriers)
		}
	}
	if resDyn.NonLocalSources >= resDyn.NonLocalWalks {
		t.Fatalf("%d contigs walked off their owner come from %d (extender, owner) pairs: the test cannot tell a get per owner from a get per contig",
			resDyn.NonLocalWalks, resDyn.NonLocalSources)
	}
	for name, res := range map[string]asmOut{"work sharing": resDyn, "static": resStat} {
		if res.RemoteGets != uint64(res.NonLocalSources) {
			t.Errorf("%s: %d remote gets for %d distinct contigs walked off their owner, held by %d (extender, owner) pairs",
				name, res.RemoteGets, res.NonLocalWalks, res.NonLocalSources)
		}
	}
}

func TestRankIndependence(t *testing.T) {
	g := genome()
	contigs := []dbg.Contig{{ID: 0, Seq: []byte(g[25:75]), Depth: 20}}
	reads := pairedReads(g, 30, 60, 3)
	opts := DefaultOptions(21)
	base := runLocalAssembly(t, contigs, reads, 1, opts)
	for _, ranks := range []int{2, 5} {
		got := runLocalAssembly(t, contigs, reads, ranks, opts)
		if string(got.Contigs[0].Seq) != string(base.Contigs[0].Seq) {
			t.Errorf("ranks=%d: extension differs from single-rank run", ranks)
		}
	}
}

func TestWalkStopsAtFork(t *testing.T) {
	// Reads diverge after a shared prefix: the walk must stop at (or shortly
	// after) the fork rather than picking a branch arbitrarily when both
	// branches are well supported at every mer size.
	prefix := "ACGTTGCAAGCTTACGGATCCGTAAACTGG"
	branchA := prefix + "AAACCCGGGTTTACGATC"
	branchB := prefix + "TTTGGGCCCAAATGCTAG"
	var reads [][]byte
	for i := 0; i < 5; i++ {
		reads = append(reads, []byte(branchA), []byte(branchB))
	}
	wp := walkParamsOf(15)
	wp.minMer = 9
	wp.maxMer = 17
	var ix merIndex
	ix.reset(reads, wp.minMer)
	start := appendSyms(nil, []byte(prefix[:25]), wp.maxMer, false)
	added := len(ix.walk(start, wp)) - len(start)
	// The walk may reach the fork point but must not run deep into either
	// branch (the branches diverge right after the prefix).
	if added > len(prefix)-25+4 {
		t.Errorf("walk continued %d bases past its start despite the fork", added)
	}
	if added < len(prefix)-25 {
		t.Errorf("walk added %d bases, want at least the %d up to the fork", added, len(prefix)-25)
	}
}

func TestWalkRespectsMaxExtension(t *testing.T) {
	g := strings.Repeat("ACGTTGCAAGCTTACGGATC", 20)
	var reads [][]byte
	for start := 0; start+40 <= len(g); start += 3 {
		reads = append(reads, []byte(g[start:start+40]))
	}
	wp := walkParamsOf(15)
	wp.maxExtension = 10
	var ix merIndex
	ix.reset(reads, wp.minMer)
	start := appendSyms(nil, []byte(g[:30]), wp.maxMer, false)
	if added := len(ix.walk(start, wp)) - len(start); added != 10 {
		t.Errorf("walk added %d bases over a clean repeat, want exactly maxExtension = 10", added)
	}
}

// TestMerIndexReusesScratch: a warm index re-indexes a smaller bundle
// without allocating, and a larger bundle grows each array once: the stream,
// the bucket heads, the positions and the per-position buckets.
func TestMerIndexReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bundle := func(reads int) [][]byte {
		out := make([][]byte, reads)
		for i := range out {
			out[i] = randBases(rng, 100)
		}
		return out
	}
	small, mid, large := bundle(20), bundle(200), bundle(2000)
	var ix merIndex
	ix.reset(mid, 21)
	if allocs := testing.AllocsPerRun(20, func() { ix.reset(small, 21) }); allocs != 0 {
		t.Errorf("warm index re-indexing a smaller bundle: %v allocs, want 0", allocs)
	}
	// Each run indexes the larger bundle from a copy of the warm index, so
	// every run starts from the smaller arrays and must grow them.
	warm := ix
	grow := testing.AllocsPerRun(5, func() {
		ix = warm
		ix.reset(large, 21)
	})
	if arrays := 4; grow == 0 || grow > float64(arrays) {
		t.Errorf("indexing a larger bundle: %v allocs, want 1 to %d, one per array that grows", grow, arrays)
	}
	if allocs := testing.AllocsPerRun(5, func() { ix.reset(large, 21) }); allocs != 0 {
		t.Errorf("re-indexing the larger bundle: %v allocs, want 0", allocs)
	}
}

// TestTandemRepeatWorkBounded: on reads of a tandem repeat every seed's
// bucket is as deep as the repeat, and a walk asks the same few mers at
// every step. The lookup memo keeps the positions compared per contig end
// within two per stream symbol plus one per lookup.
func TestTandemRepeatWorkBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, unit := range []string{"A", "AC", string(randBases(rng, 10))} {
		locus := []byte(strings.Repeat(unit, 4000/len(unit)))
		for _, n := range []int{200, 2000} {
			reads := make([][]byte, n)
			for i := range reads {
				start := rng.Intn(len(locus) - 100)
				reads[i] = locus[start : start+100]
				if i%2 == 1 {
					reads[i] = seq.ReverseComplement(reads[i])
				}
			}
			wp := walkParamsOf(33)
			var ix merIndex
			ix.reset(reads, min(wp.minMer, maxSeed))
			contig := locus[1000:1300]
			tail := min(len(contig), wp.maxMer)
			for _, rc := range []bool{false, true} {
				ix.lookups, ix.compared = 0, 0
				start := appendSyms(nil, contig, tail, rc)
				added := len(ix.walk(start, wp)) - len(start)
				if added != wp.maxExtension {
					t.Errorf("unit %q, %d reads, rc=%v: walk added %d bases, want the cap %d",
						unit, n, rc, added, wp.maxExtension)
				}
				if limit := 2*len(ix.stream) + ix.lookups; ix.compared > limit {
					t.Errorf("unit %q, %d reads, rc=%v: %d positions compared for %d lookups over %d symbols, want <= %d",
						unit, n, rc, ix.compared, ix.lookups, len(ix.stream), limit)
				}
			}
		}
	}
}

func TestDefaultOptionsSane(t *testing.T) {
	if opts := DefaultOptions(31); opts.K != 31 || !opts.WorkStealing {
		t.Errorf("bad defaults: %+v", opts)
	}
	if wp := walkParamsOf(31); wp.minMer >= wp.maxMer || wp.maxExtension <= 0 || wp.minSupport <= 0 {
		t.Errorf("bad walk bounds: %+v", wp)
	}
}

// The reference: the string-keyed mer table local assembly used before the
// mer index — every size in [minMer, maxMer] at every offset of every read on
// both strands, an O(m) ValidBases rescan and a string per window — kept
// verbatim as the oracle the index is equivalence-tested, fuzzed and
// benchmarked against.
type refMerTable map[string]*[4]int

func refBuildMerTable(reads [][]byte, minMer, maxMer int) refMerTable {
	t := make(refMerTable)
	add := func(s []byte) {
		for m := minMer; m <= maxMer; m += 1 {
			for i := 0; i+m < len(s); i++ {
				code, ok := seq.CharToBase(s[i+m])
				if !ok {
					continue
				}
				window := s[i : i+m]
				if len(bytes.Trim(window, "ACGTacgt")) != 0 {
					continue
				}
				key := string(window)
				counts, exists := t[key]
				if !exists {
					counts = &[4]int{}
					t[key] = counts
				}
				counts[code]++
			}
		}
	}
	for _, rd := range reads {
		add(rd)
		add(seq.ReverseComplement(rd))
	}
	return t
}

func refNextBase(t refMerTable, mer []byte, minSupport int) (byte, walkState) {
	counts, ok := t[string(mer)]
	if !ok {
		return 0, stateDeadEnd
	}
	best, second, bestCode := 0, 0, -1
	total := 0
	for code, c := range counts {
		total += c
		if c > best {
			second = best
			best = c
			bestCode = code
		} else if c > second {
			second = c
		}
	}
	if total == 0 || best < minSupport {
		return 0, stateDeadEnd
	}
	if second >= minSupport {
		return 0, stateFork
	}
	return byte(bestCode), stateExtend
}

// refWalk walks the reference table, marking in queried (when non-nil) every
// mer size it looked up.
func refWalk(s []byte, t refMerTable, wp walkParams, queried *[maxMerBases + 1]bool) []byte {
	cur := append([]byte(nil), s...)
	var added []byte
	m := wp.k
	if m > wp.maxMer {
		m = wp.maxMer
	}
	if m < wp.minMer {
		m = wp.minMer
	}
	lastShift := 0 // +1 upshift, -1 downshift, 0 none
	for len(added) < wp.maxExtension {
		if len(cur) < m {
			break
		}
		if queried != nil {
			queried[m] = true
		}
		mer := cur[len(cur)-m:]
		code, state := refNextBase(t, mer, wp.minSupport)
		switch state {
		case stateExtend:
			base := seq.BaseToChar(code)
			cur = append(cur, base)
			added = append(added, base)
			lastShift = 0
		case stateFork:
			if lastShift == -1 || m+shiftStep > wp.maxMer {
				return added
			}
			m += shiftStep
			lastShift = 1
		case stateDeadEnd:
			if lastShift == 1 || m-shiftStep < wp.minMer {
				return added
			}
			m -= shiftStep
			lastShift = -1
		}
	}
	return added
}

func refExtendContig(contigSeq []byte, reads [][]byte, wp walkParams, queried *[maxMerBases + 1]bool) ([]byte, int) {
	table := refBuildMerTable(reads, wp.minMer, wp.maxMer)
	right := refWalk(contigSeq, table, wp, queried)
	left := refWalk(seq.ReverseComplement(contigSeq), table, wp, queried)
	if len(right) == 0 && len(left) == 0 {
		return contigSeq, 0
	}
	newSeq := make([]byte, 0, len(contigSeq)+len(left)+len(right))
	newSeq = append(newSeq, seq.ReverseComplement(left)...)
	newSeq = append(newSeq, contigSeq...)
	newSeq = append(newSeq, right...)
	return newSeq, len(left) + len(right)
}

func randBases(r *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seq.BaseToChar(byte(r.Intn(4)))
	}
	return out
}

// merTrial is one random extension problem.
type merTrial struct {
	locus  []byte // the sequence the reads were drawn from
	contig []byte
	reads  [][]byte
	wp     walkParams
}

// randomMerTrial draws a genome with a planted repeat (a fork at mer sizes
// up to the repeat length, resolved above it), tiles it with reads of mixed
// length, strand and quality (errors, Ns, soft-masked stretches, reads
// shorter than the mer), and cuts a contig out of it — sometimes shorter than
// minMer, sometimes with an N or a masked base in its tail.
func randomMerTrial(r *rand.Rand) merTrial {
	k := []int{13, 21, 33, 55, 63}[r.Intn(5)]
	wp := walkParamsOf(k)
	wp.minSupport = 1 + r.Intn(3)
	if r.Intn(3) == 0 {
		wp.maxExtension = 1 + r.Intn(40)
	}
	// Sized to the mer so the (slow) reference stays affordable: a locus of a
	// few read lengths, ~10x coverage.
	g := randBases(r, 100+2*k+r.Intn(80))
	// Plant a second copy of a stretch a little longer or shorter than k.
	rep := k - 6 + r.Intn(16)
	from, to := r.Intn(len(g)/2-rep), len(g)/2+r.Intn(len(g)/2-rep)
	copy(g[to:to+rep], g[from:from+rep])

	tr := merTrial{locus: g, wp: wp}
	step := 6 + r.Intn(12)
	for start := 0; start < len(g); start += 1 + r.Intn(step) {
		n := 10 + r.Intn(k+20) // often shorter than the mer
		if r.Intn(4) > 0 {
			n = k + 25 + r.Intn(30) // long enough for every size up to k+12
		}
		rd := append([]byte(nil), g[start:min(start+n, len(g))]...)
		switch r.Intn(12) {
		case 0:
			rd[r.Intn(len(rd))] = 'N'
		case 1:
			rd[r.Intn(len(rd))] = seq.BaseToChar(byte(r.Intn(4)))
		case 2:
			i := r.Intn(len(rd))
			copy(rd[i:], bytes.ToLower(rd[i:min(i+5, len(rd))]))
		}
		if r.Intn(2) == 0 {
			rd = seq.ReverseComplement(rd)
		}
		tr.reads = append(tr.reads, rd)
	}
	slices.SortFunc(tr.reads, bytes.Compare)

	n := k + r.Intn(80)
	if r.Intn(5) == 0 {
		n = 1 + r.Intn(tr.wp.minMer+4) // around and below minMer
	}
	start := r.Intn(len(g) - n)
	tr.contig = append([]byte(nil), g[start:start+n]...)
	switch r.Intn(10) {
	case 0:
		tr.contig[len(tr.contig)-1-r.Intn(min(n, k))] = 'N'
	case 1:
		tr.contig[r.Intn(min(n, k))] = 'n'
	case 2:
		tr.contig[len(tr.contig)-1-r.Intn(min(n, k))] |= 0x20
	}
	if r.Intn(2) == 0 {
		tr.contig = seq.ReverseComplement(tr.contig)
	}
	return tr
}

// TestMerIndexMatchesReference requires the mer index to reproduce the
// string-keyed reference byte for byte, and checks that the trials really
// reach the paths the equivalence is claimed for, in both seed regimes: a
// seed of minMer symbols (k = 13, 21) and a seed of maxSeed < minMer symbols
// (k = 33, 55, 63). With this seed every floor is met from trial 585 on
// (the last to arrive is contigs under minMer at a minMer seed); 700 trials
// keep a margin.
func TestMerIndexMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	s := &scratch{}
	type floors struct{ extended, capped, upshifts, downshifts, shortContigs int }
	var regimes [2]floors // by seed: minMer, maxSeed
	longMers := 0
	for trial := 0; trial < 700; trial++ {
		tr := randomMerTrial(r)
		var queried [maxMerBases + 1]bool
		want, wantAdded := refExtendContig(tr.contig, tr.reads, tr.wp, &queried)
		got, gotAdded := extendKernel(tr.contig, tr.reads, tr.wp, s)
		if gotAdded != wantAdded || !bytes.Equal(got, want) {
			t.Fatalf("trial %d (k=%d, %d reads, contig %q):\n got +%d %q\nwant +%d %q",
				trial, tr.wp.k, len(tr.reads), tr.contig, gotAdded, got, wantAdded, want)
		}
		f := &regimes[0]
		if tr.wp.minMer > maxSeed {
			f = &regimes[1]
		}
		if gotAdded > 0 {
			f.extended++
		}
		tail := min(len(tr.contig), tr.wp.maxMer)
		if len(s.right)-tail == tr.wp.maxExtension || len(s.left)-tail == tr.wp.maxExtension {
			f.capped++
		}
		if len(tr.contig) < tr.wp.minMer {
			f.shortContigs++
		}
		for m, asked := range queried {
			if !asked {
				continue
			}
			if m > tr.wp.k {
				f.upshifts++
			}
			if m < tr.wp.k {
				f.downshifts++
			}
			if m > 64 {
				longMers++
			}
			if (m-tr.wp.k)%shiftStep != 0 {
				t.Fatalf("trial %d: looked up size %d, off the k=%d lattice", trial, m, tr.wp.k)
			}
		}
	}
	for i, name := range []string{"seed = minMer", "seed = maxSeed"} {
		f := regimes[i]
		t.Logf("%s: extended %d, capped %d, upshift sizes %d, downshift sizes %d, contigs < minMer: %d",
			name, f.extended, f.capped, f.upshifts, f.downshifts, f.shortContigs)
		for what, n := range map[string]int{"extended": f.extended, "capped": f.capped, "upshifts": f.upshifts,
			"downshifts": f.downshifts, "contigs under minMer": f.shortContigs} {
			if n < 20 {
				t.Errorf("%s: only %d trials reached %q; the generator no longer forces it", name, n, what)
			}
		}
	}
	if longMers < 20 {
		t.Errorf("only %d trials looked up mers over 64 bases; the generator no longer forces it", longMers)
	}
}

// merBundle is the fixed benchmark problem: a 200-read x 100-base bundle over
// a 700-base locus and a 300-base contig from its middle, at k = 33.
func merBundle() merTrial {
	r := rand.New(rand.NewSource(33))
	g := randBases(r, 700)
	tr := merTrial{locus: g}
	for i := 0; i < 200; i++ {
		start := i * (len(g) - 100) / 199
		rd := append([]byte(nil), g[start:start+100]...)
		if i%2 == 1 {
			rd = seq.ReverseComplement(rd)
		}
		tr.reads = append(tr.reads, rd)
	}
	tr.contig = g[200:500]
	tr.wp = walkParamsOf(33)
	return tr
}

// TestMerIndexSpeedup pins the headline requirement: extending a contig
// through the mer index is at least 5x faster than through the string-keyed
// reference on a 200-read bundle (best of 3 to shrug off scheduler noise;
// typical ratios are far higher), and a warm scratch walks without
// allocating.
func TestMerIndexSpeedup(t *testing.T) {
	tr := merBundle()
	s := &scratch{}
	got, added := extendKernel(tr.contig, tr.reads, tr.wp, s)
	if added < 350 || !bytes.Contains(tr.locus, got) {
		t.Fatalf("fixture: +%d bases; want both ends walked most of the 200 bases to the locus ends", added)
	}
	// A walk that never shifts: stop both ends at the cap, inside the locus.
	noShift := tr.wp
	noShift.maxExtension = 100
	if allocs := testing.AllocsPerRun(20, func() { s.walkEnds(tr.contig, tr.reads, noShift) }); allocs != 0 {
		t.Errorf("warm scratch: %v allocs per contig, want 0", allocs)
	}
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	best := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		index := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				extendKernel(tr.contig, tr.reads, tr.wp, s)
			}
		})
		ref := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				refExtendContig(tr.contig, tr.reads, tr.wp, nil)
			}
		})
		ratio := float64(ref.NsPerOp()) / float64(index.NsPerOp())
		best = max(best, ratio)
		if best >= 5 {
			t.Logf("mer index %.1fx faster than the string table (%d vs %d ns/contig)",
				ratio, index.NsPerOp(), ref.NsPerOp())
			return
		}
	}
	t.Errorf("mer index only %.2fx faster than the string table, want >= 5x", best)
}

// FuzzExtendContig feeds arbitrary contig and read bytes (reads split at
// newlines) through the mer index: it must not panic and must equal the
// string-keyed reference.
func FuzzExtendContig(f *testing.F) {
	tr := merBundle()
	f.Add([]byte(tr.contig[:80]), bytes.Join(tr.reads[40:70], []byte("\n")), 21)
	f.Add([]byte("ACGTNacgtACGTTGCAAGCTTACGGATCCGTAAACTGG"), []byte("TTACGGATCCGTAAACTGGTCCATT\nccagtttacggatccgtaagc\nNNNN\n"), 13)
	f.Add([]byte("AC"), []byte(""), 63)
	f.Add(bytes.Repeat([]byte("ACGTTGCAAGCTTACGGATC"), 6), bytes.Repeat([]byte("ACGTTGCAAGCTTACGGATC"), 12), 70)
	s := &scratch{}
	f.Fuzz(func(t *testing.T, contig, readBytes []byte, k int) {
		if len(contig) > 1<<10 || len(readBytes) > 1<<12 {
			t.Skip("the reference is too slow for long inputs")
		}
		wp := walkParamsOf(k % (seq.MaxK + 1))
		reads := bytes.Split(readBytes, []byte("\n"))
		want, wantAdded := refExtendContig(contig, reads, wp, nil)
		got, gotAdded := extendKernel(contig, reads, wp, s)
		if gotAdded != wantAdded || !bytes.Equal(got, want) {
			t.Fatalf("k=%d contig %q reads %q:\n got +%d %q\nwant +%d %q",
				wp.k, contig, reads, gotAdded, got, wantAdded, want)
		}
	})
}
