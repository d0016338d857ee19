package eval

import (
	"fmt"
	"sort"

	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// Per-sample abundance recovery for multi-sample co-assemblies. A co-assembly
// pools every sample's reads into one assembly, so the per-sample abundance
// signal is no longer in the contigs themselves — it is recovered afterwards
// by localizing each read onto the assembly (the same seed-and-vote scheme
// the assembler's read-localization stage uses) and counting, per sample, how
// many reads land on each assembly sequence. With the simulated community in
// hand, assembly sequences are attributed to reference genomes and the
// counts roll up into a per-sample, per-genome abundance estimate: reads per
// genome divided by genome length, normalized to sum to 1 — the read-count
// analogue of the simulator's abundance*length sampling weights.

// GenomeAbundance is one genome's estimated abundance within one sample.
type GenomeAbundance struct {
	// Name is the reference genome's name.
	Name string
	// Reads is the number of the sample's reads localized onto assembly
	// sequences attributed to this genome.
	Reads int
	// Abundance is the length-normalized relative abundance estimate: the
	// genome's reads-per-base share of the sample, normalized so a sample's
	// estimates sum to 1 (0 when the sample localized no reads at all).
	Abundance float64
}

// SampleAbundance is the abundance report for one sample of a co-assembly.
type SampleAbundance struct {
	// Sample is the sample's name.
	Sample string
	// Reads is the number of input reads carrying this sample's SampleID.
	Reads int
	// Localized is how many of them localized onto the assembly.
	Localized int
	// PerSeq counts the sample's localized reads per assembly sequence,
	// indexed like the assembly slice.
	PerSeq []int
	// PerGenome is the per-reference-genome rollup, in community genome
	// order. Empty when AbundanceReport was called without a community.
	PerGenome []GenomeAbundance
}

// asmIndex maps canonical seeds to the assembly sequences containing them.
type asmIndex map[seq.Kmer][]int32

func buildAsmIndex(assembly [][]byte) asmIndex {
	// Every assembly position is indexed (no stride): reads sample their
	// seeds with seedStride, and a strided index would only catch the seeds
	// whose phase happens to line up, silently dropping most localizations.
	idx := make(asmIndex)
	for si, s := range assembly {
		for canon := range seq.CanonicalKmers(s, seedLen) {
			hs := idx[canon]
			if len(hs) > 0 && hs[len(hs)-1] == int32(si) {
				continue // one vote per sequence per seed
			}
			idx[canon] = append(hs, int32(si))
		}
	}
	return idx
}

// localize votes a read onto the assembly sequence sharing the most of its
// seeds, returning -1 when no seed matches (ties resolve to the lowest
// sequence index, keeping the report deterministic).
func (idx asmIndex) localize(rd []byte) int {
	votes := map[int32]int{}
	nextAt := 0
	for canon, at := range seq.CanonicalKmers(rd, seedLen) {
		if at.Off < nextAt {
			continue
		}
		nextAt = at.Off + seedStride
		hs := idx[canon]
		if len(hs) == 0 || len(hs) > maxSeedHits {
			continue
		}
		for _, si := range hs {
			votes[si]++
		}
	}
	best, bestVotes := int32(-1), 0
	for si, v := range votes {
		if v > bestVotes || (v == bestVotes && best >= 0 && si < best) {
			best, bestVotes = si, v
		}
	}
	return int(best)
}

// attributeToGenomes maps each assembly sequence to the reference genome
// explaining the most of its aligned bases (-1 when nothing aligns), using
// the same seed alignment Evaluate scores coverage with.
func attributeToGenomes(assembly [][]byte, comm *sim.Community) []int {
	idx := buildRefIndex(comm)
	owner := make([]int, len(assembly))
	for si, s := range assembly {
		owner[si] = bestGenomeOf(alignBlocks(s, idx))
	}
	return owner
}

// AbundanceReport localizes every read onto the co-assembly and returns one
// SampleAbundance per sample, ordered by SampleID. Samples are named from
// sampleNames where provided ("sampleN" beyond the list); the report always
// covers SampleIDs 0 through the largest observed, so single-sample inputs
// yield a one-entry report. comm may be nil, in which case only the per-
// sequence localization counts are reported (no per-genome rollup). The
// report is deterministic for a fixed assembly and read order.
func AbundanceReport(assembly [][]byte, reads []seq.Read, sampleNames []string, comm *sim.Community) []SampleAbundance {
	numSamples := 1
	for _, r := range reads {
		if int(r.SampleID)+1 > numSamples {
			numSamples = int(r.SampleID) + 1
		}
	}
	out := make([]SampleAbundance, numSamples)
	for i := range out {
		if i < len(sampleNames) && sampleNames[i] != "" {
			out[i].Sample = sampleNames[i]
		} else {
			out[i].Sample = fmt.Sprintf("sample%d", i)
		}
		out[i].PerSeq = make([]int, len(assembly))
	}

	idx := buildAsmIndex(assembly)
	for _, r := range reads {
		sa := &out[r.SampleID]
		sa.Reads++
		if si := idx.localize(r.Seq); si >= 0 {
			sa.Localized++
			sa.PerSeq[si]++
		}
	}

	if comm == nil {
		return out
	}
	owner := attributeToGenomes(assembly, comm)
	for i := range out {
		sa := &out[i]
		sa.PerGenome = make([]GenomeAbundance, len(comm.Genomes))
		for gi, g := range comm.Genomes {
			sa.PerGenome[gi].Name = g.Name
		}
		for si, n := range sa.PerSeq {
			if g := owner[si]; g >= 0 {
				sa.PerGenome[g].Reads += n
			}
		}
		var share float64
		for gi, g := range comm.Genomes {
			if len(g.Seq) > 0 {
				share += float64(sa.PerGenome[gi].Reads) / float64(len(g.Seq))
			}
		}
		if share > 0 {
			for gi, g := range comm.Genomes {
				if len(g.Seq) > 0 {
					sa.PerGenome[gi].Abundance = float64(sa.PerGenome[gi].Reads) / float64(len(g.Seq)) / share
				}
			}
		}
	}
	return out
}

// FormatAbundanceTable renders per-sample abundance estimates as one row per
// sample with one column per genome, for CLI and example output.
func FormatAbundanceTable(samples []SampleAbundance) string {
	if len(samples) == 0 {
		return ""
	}
	names := make([]string, 0, len(samples[0].PerGenome))
	for _, g := range samples[0].PerGenome {
		names = append(names, g.Name)
	}
	sort.Strings(names)
	out := fmt.Sprintf("%-12s %8s %9s", "Sample", "Reads", "Localized")
	for _, n := range names {
		out += fmt.Sprintf(" %12s", n)
	}
	out += "\n"
	for _, sa := range samples {
		out += fmt.Sprintf("%-12s %8d %9d", sa.Sample, sa.Reads, sa.Localized)
		byName := map[string]GenomeAbundance{}
		for _, g := range sa.PerGenome {
			byName[g.Name] = g
		}
		for _, n := range names {
			out += fmt.Sprintf(" %12.4f", byName[n].Abundance)
		}
		out += "\n"
	}
	return out
}
