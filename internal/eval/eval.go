// Package eval is a metaQUAST-style reference-based evaluator for assemblies
// of simulated communities. It computes the quality metrics reported in the
// paper's Table I and Figure 6: assembly length above size thresholds,
// misassembly counts, per-genome and overall genome fraction, NGA50 per
// genome, and the number of assembled ribosomal (rRNA-like) regions.
//
// The paper runs the external metaQUAST 4.3 tool; since the references here
// are the simulator's own genomes, the same metrics are computed directly.
//
// Evaluation is purely content-based: it scores whatever sequences it is
// given against the reference genomes, so the same Evaluate call compares
// contigs against scaffolds, single-library against multi-library
// round-based assemblies (see BenchmarkMultiLibraryScaffolding and
// examples/multilib), or MetaHipMer against the baseline proxies — the
// read set's library structure never enters the computation.
package eval

import (
	"fmt"
	"sort"

	"mhmgo/internal/hmm"
	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// Options controls evaluation.
type Options struct {
	// LengthThresholds are the "length >= X" rows of Table I (scaled).
	LengthThresholds []int
	// RRNAProfile counts assembled ribosomal regions (the sequences it hits)
	// when non-nil.
	RRNAProfile *hmm.Profile
}

const (
	// seedLen is the seed length used to map assembly sequences onto the
	// reference genomes.
	seedLen = 21
	// seedStride is the sampling stride along each assembly sequence.
	seedStride = 8
	// minBlockLen is the minimum aligned block length that contributes to
	// coverage and misassembly analysis.
	minBlockLen = 100
	// maxSeedHits skips seeds occurring in more than this many reference
	// positions.
	maxSeedHits = 8
	// diagTolerance groups seed hits whose diagonal differs by at most this
	// many bases into one aligned block.
	diagTolerance = 30
)

// DefaultOptions returns evaluation defaults scaled to the simulator's
// genome sizes.
func DefaultOptions() Options {
	return Options{LengthThresholds: []int{1000, 2500, 5000}}
}

// GenomeReport is the per-reference-genome evaluation.
type GenomeReport struct {
	Name           string
	Length         int
	AlignedBases   int
	GenomeFraction float64
	NGA50          int
}

// Report is the full evaluation of one assembly.
type Report struct {
	Assembler       string
	NumSeqs         int
	TotalLen        int
	N50             int
	LenAtLeast      map[int]int
	Misassemblies   int
	GenomeFraction  float64
	RRNACount       int
	UnalignedSeqs   int
	PerGenome       []GenomeReport
	RuntimeSimSecs  float64
	RuntimeWallSecs float64
}

// refIndex maps canonical seeds to their reference positions.
type refIndex map[seq.Kmer][]refHit

type refHit struct {
	Genome  int
	Pos     int
	Reverse bool
}

func buildRefIndex(comm *sim.Community) refIndex {
	idx := make(refIndex)
	for gi, g := range comm.Genomes {
		for canon, at := range seq.CanonicalKmers(g.Seq, seedLen) {
			idx[canon] = append(idx[canon], refHit{Genome: gi, Pos: at.Off, Reverse: at.RC})
		}
	}
	return idx
}

// block is a contiguous aligned region between an assembly sequence and one
// reference genome.
type block struct {
	Genome           int
	SeqStart, SeqEnd int
	RefStart, RefEnd int
	Reverse          bool
	// Diag is the alignment diagonal the block lies on (orientation-aware);
	// two same-genome blocks on wildly different diagonals indicate a
	// rearrangement.
	Diag int
}

func (b block) seqLen() int { return b.SeqEnd - b.SeqStart }

// alignBlocks maps one assembly sequence onto the references by clustering
// seed hits along diagonals.
func alignBlocks(s []byte, idx refIndex) []block {
	type anchor struct {
		genome  int
		reverse bool
		diag    int
		seqPos  int
		refPos  int
	}
	var anchors []anchor
	nextAt := 0
	for canon, at := range seq.CanonicalKmers(s, seedLen) {
		off := at.Off
		if off < nextAt {
			continue
		}
		nextAt = off + seedStride
		hits := idx[canon]
		if len(hits) == 0 || len(hits) > maxSeedHits {
			continue
		}
		for _, h := range hits {
			reverse := at.RC != h.Reverse
			var diag int
			if !reverse {
				diag = h.Pos - off
			} else {
				diag = h.Pos + off
			}
			anchors = append(anchors, anchor{genome: h.Genome, reverse: reverse, diag: diag, seqPos: off, refPos: h.Pos})
		}
	}
	if len(anchors) == 0 {
		return nil
	}
	sort.Slice(anchors, func(i, j int) bool {
		a, b := anchors[i], anchors[j]
		if a.genome != b.genome {
			return a.genome < b.genome
		}
		if a.reverse != b.reverse {
			return !a.reverse
		}
		if a.diag != b.diag {
			return a.diag < b.diag
		}
		return a.seqPos < b.seqPos
	})
	var blocks []block
	cur := block{Genome: -1}
	curDiag := 0
	flush := func() {
		if cur.Genome >= 0 && cur.seqLen() >= minBlockLen {
			blocks = append(blocks, cur)
		}
		cur = block{Genome: -1}
	}
	for _, a := range anchors {
		if cur.Genome == a.genome && cur.Reverse == a.reverse && abs(a.diag-curDiag) <= diagTolerance && a.seqPos <= cur.SeqEnd+diagTolerance+seedStride {
			if a.seqPos+seedLen > cur.SeqEnd {
				cur.SeqEnd = a.seqPos + seedLen
			}
			if a.refPos < cur.RefStart {
				cur.RefStart = a.refPos
			}
			if a.refPos+seedLen > cur.RefEnd {
				cur.RefEnd = a.refPos + seedLen
			}
			continue
		}
		flush()
		cur = block{
			Genome:   a.genome,
			Reverse:  a.reverse,
			SeqStart: a.seqPos,
			SeqEnd:   a.seqPos + seedLen,
			RefStart: a.refPos,
			RefEnd:   a.refPos + seedLen,
			Diag:     a.diag,
		}
		curDiag = a.diag
	}
	flush()
	return blocks
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Evaluate computes the report for an assembly (a set of contig or scaffold
// sequences) against the simulated community it was assembled from.
func Evaluate(name string, assembly [][]byte, comm *sim.Community, opts Options) Report {
	rep := Report{Assembler: name, LenAtLeast: make(map[int]int)}
	lengths := make([]int, 0, len(assembly))
	for _, s := range assembly {
		lengths = append(lengths, len(s))
		for _, thr := range opts.LengthThresholds {
			if len(s) >= thr {
				rep.LenAtLeast[thr] += len(s)
			}
		}
	}
	st := seq.SummarizeLengths(lengths)
	rep.NumSeqs, rep.TotalLen, rep.N50 = st.Count, st.TotalBases, st.N50

	idx := buildRefIndex(comm)
	covered := make([][]bool, len(comm.Genomes))
	for gi, g := range comm.Genomes {
		covered[gi] = make([]bool, len(g.Seq))
	}
	// Aligned block lengths per genome, used for NGA50.
	blockLens := make([][]int, len(comm.Genomes))

	for _, s := range assembly {
		blocks := alignBlocks(s, idx)
		if len(blocks) == 0 {
			rep.UnalignedSeqs++
			continue
		}
		// Coverage and per-genome block lengths.
		for _, b := range blocks {
			g := comm.Genomes[b.Genome]
			lo, hi := b.RefStart, b.RefEnd
			if lo < 0 {
				lo = 0
			}
			if hi > len(g.Seq) {
				hi = len(g.Seq)
			}
			for p := lo; p < hi; p++ {
				covered[b.Genome][p] = true
			}
			blockLens[b.Genome] = append(blockLens[b.Genome], b.seqLen())
		}
		// Misassembly detection. Like metaQUAST, pick the best-explaining
		// reference genome for the sequence; the sequence is misassembled if
		// a substantial part of it aligns to a *different* genome at
		// positions the best genome does not explain (a chimera), or if the
		// best genome's own blocks imply a rearrangement. Conserved regions
		// shared between genomes (e.g. rRNA) overlap the best genome's
		// blocks and are therefore not penalized.
		if bestGenome := bestGenomeOf(blocks); bestGenome >= 0 {
			coveredByBest := make([]bool, len(s))
			for _, b := range blocks {
				if b.Genome != bestGenome {
					continue
				}
				for p := b.SeqStart; p < b.SeqEnd && p < len(s); p++ {
					coveredByBest[p] = true
				}
			}
			foreignUncovered := 0
			for _, b := range blocks {
				if b.Genome == bestGenome {
					continue
				}
				for p := b.SeqStart; p < b.SeqEnd && p < len(s); p++ {
					if !coveredByBest[p] {
						foreignUncovered++
					}
				}
			}
			if foreignUncovered >= 2*minBlockLen {
				rep.Misassemblies++
			} else if sameGenomeInconsistent(blocks, bestGenome) {
				rep.Misassemblies++
			}
		}
	}

	// Per-genome reports. Strain genomes share most of their sequence with
	// their parents; they are still evaluated independently.
	totalRefBases, totalCovered := 0, 0
	for gi, g := range comm.Genomes {
		cov := 0
		for _, c := range covered[gi] {
			if c {
				cov++
			}
		}
		gr := GenomeReport{Name: g.Name, Length: len(g.Seq), AlignedBases: cov}
		if len(g.Seq) > 0 {
			gr.GenomeFraction = float64(cov) / float64(len(g.Seq))
		}
		gr.NGA50 = seq.NG50(blockLens[gi], len(g.Seq))
		rep.PerGenome = append(rep.PerGenome, gr)
		totalRefBases += len(g.Seq)
		totalCovered += cov
	}
	if totalRefBases > 0 {
		rep.GenomeFraction = float64(totalCovered) / float64(totalRefBases)
	}

	if opts.RRNAProfile != nil {
		rep.RRNACount = opts.RRNAProfile.CountHits(assembly)
	}
	return rep
}

// bestGenomeOf returns the genome that explains the most aligned bases of
// one sequence's blocks, the lowest index on a tie, or -1 if there are no
// blocks.
func bestGenomeOf(blocks []block) int {
	aligned := map[int]int{}
	for _, b := range blocks {
		aligned[b.Genome] += b.seqLen()
	}
	best, bestAligned := -1, 0
	for g, v := range aligned {
		if v > bestAligned || (v == bestAligned && (best < 0 || g < best)) {
			best, bestAligned = g, v
		}
	}
	return best
}

// sameGenomeInconsistent reports whether two large blocks of the chosen
// genome imply a rearrangement: opposite orientations or alignment diagonals
// that are too far apart to be a mere indel or unclosed gap.
func sameGenomeInconsistent(blocks []block, genome int) bool {
	const slack = 1000
	for i := 0; i < len(blocks); i++ {
		for j := i + 1; j < len(blocks); j++ {
			a, b := blocks[i], blocks[j]
			if a.Genome != genome || b.Genome != genome ||
				a.seqLen() < 2*minBlockLen || b.seqLen() < 2*minBlockLen {
				continue
			}
			if a.Reverse != b.Reverse {
				return true
			}
			if abs(a.Diag-b.Diag) > slack {
				return true
			}
		}
	}
	return false
}

// FormatTable renders a set of reports as the paper's Table I layout.
func FormatTable(reports []Report, thresholds []int) string {
	out := "Assembler        "
	for _, thr := range thresholds {
		out += fmt.Sprintf(" len>=%-6d", thr)
	}
	out += "  MSA  rRNA  GenFrac  N50     Runtime(s)\n"
	for _, r := range reports {
		out += fmt.Sprintf("%-17s", r.Assembler)
		for _, thr := range thresholds {
			out += fmt.Sprintf(" %-10d", r.LenAtLeast[thr])
		}
		out += fmt.Sprintf("  %-4d %-5d %-8.3f %-7d %.2f\n",
			r.Misassemblies, r.RRNACount, r.GenomeFraction, r.N50, r.RuntimeSimSecs)
	}
	return out
}
