// Package mhmgo is the public API of MetaHipMer-Go, a from-scratch Go
// reproduction of "Extreme Scale De Novo Metagenome Assembly" (Georganas et
// al., SC18). It assembles metagenomic short-read data with the paper's
// iterative de Bruijn graph pipeline and metagenome-aware scaffolder, running
// SPMD-style on a virtual PGAS machine whose communication is metered by a
// cost model (see DESIGN.md for the substitutions relative to the paper's
// Cray/UPC environment).
//
// Quick start:
//
//	comm := mhmgo.SimulateCommunity(mhmgo.DefaultCommunityConfig())
//	reads := mhmgo.SimulateReads(comm, mhmgo.DefaultReadConfig())
//	result, err := mhmgo.Assemble(reads, mhmgo.DefaultConfig(8))
//	// result.FinalSequences() are the assembled scaffolds.
package mhmgo

import (
	"mhmgo/internal/core"
	"mhmgo/internal/eval"
	"mhmgo/internal/hmm"
	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// Re-exported core types. Config controls the pipeline, Result is the
// assembly outcome; see the internal/core documentation for field details.
type (
	// Config is the assembly pipeline configuration.
	Config = core.Config
	// Result is the outcome of an assembly.
	Result = core.Result
	// Read is a sequencing read.
	Read = seq.Read
	// Library describes one paired-end library of a (possibly
	// multi-library) assembly; see Config.Libraries.
	Library = seq.Library
	// Community is a simulated metagenome with known reference genomes.
	Community = sim.Community
	// CommunityConfig controls community simulation.
	CommunityConfig = sim.CommunityConfig
	// ReadConfig controls read simulation.
	ReadConfig = sim.ReadConfig
	// LibraryConfig describes one simulated library within a multi-library
	// ReadConfig.
	LibraryConfig = sim.LibraryConfig
	// SampleConfig describes one sample of a multi-sample co-assembly
	// simulation; see ReadConfig.Samples.
	SampleConfig = sim.SampleConfig
	// SampleAbundance is the per-sample abundance report recovered from a
	// co-assembly by read localization.
	SampleAbundance = eval.SampleAbundance
	// GenomeAbundance is one genome's abundance estimate within one sample.
	GenomeAbundance = eval.GenomeAbundance
	// QualityReport is a metaQUAST-style evaluation of an assembly against
	// the simulated references.
	QualityReport = eval.Report
	// RRNAProfile is a profile model of a conserved ribosomal region.
	RRNAProfile = hmm.Profile
)

// DefaultConfig returns the standard MetaHipMer pipeline configuration for a
// virtual machine with the given number of ranks.
func DefaultConfig(ranks int) Config { return core.DefaultConfig(ranks) }

// Assemble runs the full pipeline (iterative contig generation plus
// scaffolding) over interleaved paired-end reads.
func Assemble(reads []Read, cfg Config) (*Result, error) { return core.Assemble(reads, cfg) }

// DefaultCommunityConfig returns a small synthetic community configuration.
func DefaultCommunityConfig() CommunityConfig { return sim.DefaultCommunityConfig() }

// DefaultReadConfig returns a typical Illumina-like read simulation
// configuration.
func DefaultReadConfig() ReadConfig { return sim.DefaultReadConfig() }

// TwoLibraryReadConfig returns the paper-style two-library configuration: a
// short-insert (300 bp) paired-end library plus a long-insert (1500 bp)
// jumping library. Assemble the resulting reads with a Config whose
// Libraries list matches (same order and geometry) to get round-based
// multi-library scaffolding; see TUTORIAL.md.
func TwoLibraryReadConfig(coverage float64, seed int64) ReadConfig {
	return sim.TwoLibraryReadConfig(coverage, seed)
}

// TimeSeriesSamples returns n sample configurations modelling repeated
// sampling of one environment: an undrifted baseline plus log-normally
// drifted later samples. Attach the list to ReadConfig.Samples.
func TimeSeriesSamples(n int, sigma float64) []SampleConfig {
	return sim.TimeSeriesSamples(n, sigma)
}

// CoassemblyScenario builds the canonical co-assembly demonstration: a
// community whose rarest organism no single sample can assemble, plus a
// multi-sample ReadConfig whose pooled reads can. See examples/coassembly.
func CoassemblyScenario(samples int, seed int64) (*Community, ReadConfig) {
	return sim.CoassemblyScenario(samples, seed)
}

// SimulateCommunity generates a deterministic synthetic metagenome.
func SimulateCommunity(cfg CommunityConfig) *Community { return sim.GenerateCommunity(cfg) }

// SimulateReads generates paired-end reads from a community.
func SimulateReads(c *Community, cfg ReadConfig) []Read { return sim.SimulateReads(c, cfg) }

// BuildRRNAProfile builds a ribosomal-region profile from example marker
// sequences (e.g. a community's planted marker); pass it via
// Config.RRNAProfile to enable the rRNA scaffolding rule.
func BuildRRNAProfile(examples [][]byte, conservation float64) *RRNAProfile {
	return hmm.BuildProfile(examples, conservation)
}

// Evaluate scores an assembly against the community it was simulated from,
// producing the paper's Table I metrics.
func Evaluate(name string, assembly [][]byte, comm *Community) QualityReport {
	return eval.Evaluate(name, assembly, comm, eval.DefaultOptions())
}

// SampleAbundances recovers per-sample abundance estimates from a
// co-assembly by localizing every read onto the assembled sequences and
// counting, per sample, how many land on sequences attributed to each
// reference genome. sampleNames labels SampleIDs in order ("sampleN" beyond
// the list); comm may be nil to skip the per-genome rollup on
// reference-free inputs.
func SampleAbundances(assembly [][]byte, reads []Read, sampleNames []string, comm *Community) []SampleAbundance {
	return eval.AbundanceReport(assembly, reads, sampleNames, comm)
}

// FormatAbundanceTable renders per-sample abundance estimates as a table:
// one row per sample, one column per genome.
func FormatAbundanceTable(samples []SampleAbundance) string {
	return eval.FormatAbundanceTable(samples)
}
