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
// (sorted by descending length, then sequence), the remote gets Run charged
// over all ranks, and how many distinct contigs received recruits on a rank
// other than their owner.
type asmOut struct {
	Result
	Contigs       []dbg.Contig
	RemoteGets    uint64
	NonLocalWalks int
}

func runLocalAssembly(t *testing.T, contigs []dbg.Contig, reads []seq.Read, ranks int, opts Options) asmOut {
	t.Helper()
	m := pgas.NewMachine(pgas.Config{Ranks: ranks})
	aopts := aligner.DefaultOptions(15)
	var res asmOut
	gets := make([]uint64, ranks)
	recruited := make([][]recruit, ranks)
	m.Run(func(r *pgas.Rank) {
		lo, hi := r.BlockRange(len(contigs))
		cs := dbg.DistributeContigs(r, contigs[lo:hi], dist.Distributed)
		idx := aligner.BuildIndex(r, cs, aopts)
		plo, phi := r.PairBlockRange(len(reads))
		aligns, _ := aligner.AlignReads(r, idx, reads[plo:phi], plo, aopts)
		before := r.Stats().RemoteGets
		got := Run(r, cs, reads[plo:phi], plo, aligns, opts)
		gets[r.ID()] = r.Stats().RemoteGets - before
		recruited[r.ID()], _ = recruitReads(reads[plo:phi], plo, aligns, opts)
		all := cs.Emit(r)
		if r.ID() == 0 {
			sort.Slice(all, func(i, j int) bool { return dbg.ContigLess(all[i], all[j]) })
			res = asmOut{Result: got, Contigs: all}
		}
	})
	walked := map[int]bool{}
	for rank := range recruited {
		res.RemoteGets += gets[rank]
		for _, rc := range recruited[rank] {
			walked[rc.ContigID] = true
		}
	}
	for id := range walked {
		if owner, _ := dist.Locate(id); extenderOf(id, ranks, opts.WorkStealing) != owner {
			res.NonLocalWalks++
		}
	}
	return res
}

func TestExtendsTruncatedContig(t *testing.T) {
	g := genome()
	// The contig covers only the middle of the genome; reads cover all of it,
	// so mer-walking should extend the contig toward both genome ends.
	contig := dbg.Contig{ID: 0, Seq: []byte(g[30:70]), Depth: 20}
	reads := pairedReads(g, 30, 60, 2)
	opts := DefaultOptions(21)
	opts.MinSupport = 2
	res := runLocalAssembly(t, []dbg.Contig{contig}, reads, 3, opts)
	if res.ExtendedBases == 0 || res.ContigsTouched != 1 {
		t.Fatalf("no extension happened: %+v", res)
	}
	ext := string(res.Contigs[0].Seq)
	if len(ext) <= 40 {
		t.Fatalf("contig not extended: %d bases", len(ext))
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
	if res.ExtendedBases != 0 || res.ContigsTouched != 0 {
		t.Errorf("extension without reads: %+v", res)
	}
	if string(res.Contigs[0].Seq) != genome()[10:60] {
		t.Error("contig modified without reads")
	}
}

// TestWorkStealingMatchesStatic: the work-sharing schedule extends every
// contig exactly as the owners do, and its charges are what the schedule
// needs and no more — one one-sided get per distinct contig walked on a rank
// other than its owner, so a contig without recruits costs nothing.
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
	if resDyn.Steals == 0 {
		t.Error("dynamic scheduler should record at least one steal")
	}
	if resStat.Steals != 0 {
		t.Error("static scheduler should record zero steals")
	}
	if resDyn.NonLocalWalks == 0 {
		t.Fatal("no contig was walked away from its owner: the test exercises nothing")
	}
	for name, res := range map[string]asmOut{"work sharing": resDyn, "static": resStat} {
		if res.RemoteGets != uint64(res.NonLocalWalks) {
			t.Errorf("%s: %d remote gets for %d distinct contigs walked off their owner",
				name, res.RemoteGets, res.NonLocalWalks)
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
	opts := DefaultOptions(15)
	opts.MinMer = 9
	opts.MaxMer = 17
	var ix merIndex
	ix.reset(reads)
	start := appendSyms(nil, []byte(prefix[:25]), opts.MaxMer, false)
	added := len(ix.walk(start, opts)) - len(start)
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
	opts := DefaultOptions(15)
	opts.MaxExtension = 10
	var ix merIndex
	ix.reset(reads)
	start := appendSyms(nil, []byte(g[:30]), opts.MaxMer, false)
	if added := len(ix.walk(start, opts)) - len(start); added != 10 {
		t.Errorf("walk added %d bases over a clean repeat, want exactly MaxExtension = 10", added)
	}
}

// TestMerTableFirstAllocation: a table's first contig sizes it from the
// stream length (floored at minTableSlots), later contigs keep that storage,
// and a bundle with more distinct mers than the guess still grows it.
func TestMerTableFirstAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	read := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
		}
		return b
	}
	var ix merIndex
	ix.reset([][]byte{read(40)})
	if got := len(ix.table(21).slots); got != minTableSlots {
		t.Errorf("82-symbol stream: %d slots, want the floor %d", got, minTableSlots)
	}
	// 20 random 1,000-base reads: a 40,040-symbol stream of distinct mers.
	var big [][]byte
	for i := 0; i < 20; i++ {
		big = append(big, read(1000))
	}
	ix.reset(big)
	if tb := ix.table(23); 2*tb.n > len(tb.slots) || len(tb.slots) < 1<<15 {
		t.Errorf("new table: %d mers in %d slots, want a first allocation of 32768 grown to fit", tb.n, len(tb.slots))
	}
	if tb := ix.table(21); 2*tb.n > len(tb.slots) || tb.n < 39000 {
		t.Errorf("reused table: %d mers in %d slots after growth", tb.n, len(tb.slots))
	}
	ix.reset([][]byte{read(40)})
	if got := len(ix.table(21).slots); got < 1<<15 {
		t.Errorf("table shrank to %d slots on a small contig", got)
	}
}

func TestDefaultOptionsSane(t *testing.T) {
	opts := DefaultOptions(31)
	if opts.MinMer >= opts.MaxMer || opts.MaxExtension <= 0 || !opts.WorkStealing {
		t.Errorf("bad defaults: %+v", opts)
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

func refWalk(s []byte, t refMerTable, opts Options) []byte {
	cur := append([]byte(nil), s...)
	var added []byte
	m := opts.K
	if m > opts.MaxMer {
		m = opts.MaxMer
	}
	if m < opts.MinMer {
		m = opts.MinMer
	}
	lastShift := 0 // +1 upshift, -1 downshift, 0 none
	for len(added) < opts.MaxExtension {
		if len(cur) < m {
			break
		}
		mer := cur[len(cur)-m:]
		code, state := refNextBase(t, mer, opts.MinSupport)
		switch state {
		case stateExtend:
			base := seq.BaseToChar(code)
			cur = append(cur, base)
			added = append(added, base)
			lastShift = 0
		case stateFork:
			if lastShift == -1 || m+shiftStep > opts.MaxMer {
				return added
			}
			m += shiftStep
			lastShift = 1
		case stateDeadEnd:
			if lastShift == 1 || m-shiftStep < opts.MinMer {
				return added
			}
			m -= shiftStep
			lastShift = -1
		}
	}
	return added
}

func refExtendContig(contigSeq []byte, reads [][]byte, opts Options) ([]byte, int) {
	table := refBuildMerTable(reads, opts.MinMer, opts.MaxMer)
	right := refWalk(contigSeq, table, opts)
	left := refWalk(seq.ReverseComplement(contigSeq), table, opts)
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
	opts   Options
}

// randomMerTrial draws a genome with a planted repeat (a fork at mer sizes
// up to the repeat length, resolved above it), tiles it with reads of mixed
// length, strand and quality (errors, Ns, soft-masked stretches, reads
// shorter than the mer), and cuts a contig out of it — sometimes shorter than
// MinMer, sometimes with an N or a masked base in its tail.
func randomMerTrial(r *rand.Rand) merTrial {
	k := []int{21, 33, 55, 63}[r.Intn(4)]
	opts := DefaultOptions(k)
	opts.MinSupport = 1 + r.Intn(3)
	if r.Intn(3) == 0 {
		opts.MaxExtension = 1 + r.Intn(40)
	}
	// Sized to the mer so the (slow) reference stays affordable: a locus of a
	// few read lengths, ~10x coverage.
	g := randBases(r, 100+2*k+r.Intn(80))
	// Plant a second copy of a stretch a little longer or shorter than k.
	rep := k - 6 + r.Intn(16)
	from, to := r.Intn(len(g)/2-rep), len(g)/2+r.Intn(len(g)/2-rep)
	copy(g[to:to+rep], g[from:from+rep])

	tr := merTrial{locus: g, opts: opts.normalized()}
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
	if r.Intn(10) == 0 {
		n = 1 + r.Intn(tr.opts.MinMer+4) // around and below MinMer
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
// reach the paths the equivalence is claimed for.
func TestMerIndexMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	s := &scratch{}
	var extended, capped, upshifts, downshifts, longMers, shortContigs int
	for trial := 0; trial < 2000; trial++ {
		tr := randomMerTrial(r)
		want, wantAdded := refExtendContig(tr.contig, tr.reads, tr.opts)
		got, gotAdded := extendKernel(tr.contig, tr.reads, tr.opts, s)
		if gotAdded != wantAdded || !bytes.Equal(got, want) {
			t.Fatalf("trial %d (k=%d, %d reads, contig %q):\n got +%d %q\nwant +%d %q",
				trial, tr.opts.K, len(tr.reads), tr.contig, gotAdded, got, wantAdded, want)
		}
		if gotAdded > 0 {
			extended++
		}
		tail := min(len(tr.contig), tr.opts.MaxMer)
		if len(s.right)-tail == tr.opts.MaxExtension || len(s.left)-tail == tr.opts.MaxExtension {
			capped++
		}
		if len(tr.contig) < tr.opts.MinMer {
			shortContigs++
		}
		for m := range s.index.tables {
			if s.index.tables[m].epoch != s.index.gen {
				continue
			}
			if m > tr.opts.K {
				upshifts++
			}
			if m < tr.opts.K {
				downshifts++
			}
			if m > 64 {
				longMers++
			}
			if (m-tr.opts.K)%shiftStep != 0 {
				t.Fatalf("trial %d: built the size-%d table, off the k=%d lattice", trial, m, tr.opts.K)
			}
		}
	}
	t.Logf("extended %d, capped %d, upshift tables %d, downshift tables %d, tables of m > 64: %d, contigs < MinMer: %d",
		extended, capped, upshifts, downshifts, longMers, shortContigs)
	for name, n := range map[string]int{"extended": extended, "capped": capped, "upshifts": upshifts,
		"downshifts": downshifts, "mers over 64 bases": longMers, "contigs under MinMer": shortContigs} {
		if n < 20 {
			t.Errorf("only %d trials reached %q; the generator no longer forces it", n, name)
		}
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
	tr.opts = DefaultOptions(33).normalized()
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
	got, added := extendKernel(tr.contig, tr.reads, tr.opts, s)
	if added < 350 || !bytes.Contains(tr.locus, got) {
		t.Fatalf("fixture: +%d bases; want both ends walked most of the 200 bases to the locus ends", added)
	}
	// A walk that never shifts: stop both ends at the cap, inside the locus.
	noShift := tr.opts
	noShift.MaxExtension = 100
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
				extendKernel(tr.contig, tr.reads, tr.opts, s)
			}
		})
		ref := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				refExtendContig(tr.contig, tr.reads, tr.opts)
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
		opts := DefaultOptions(k % (seq.MaxK + 1)).normalized()
		reads := bytes.Split(readBytes, []byte("\n"))
		want, wantAdded := refExtendContig(contig, reads, opts)
		got, gotAdded := extendKernel(contig, reads, opts, s)
		if gotAdded != wantAdded || !bytes.Equal(got, want) {
			t.Fatalf("k=%d contig %q reads %q:\n got +%d %q\nwant +%d %q",
				opts.K, contig, reads, gotAdded, got, wantAdded, want)
		}
	})
}
