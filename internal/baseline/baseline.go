// Package baseline implements the comparison assemblers of the paper's
// evaluation (Table I and the Ray Meta scaling comparison) as configurations
// of the same underlying substrates. Each proxy reproduces the algorithmic
// property that drives its position in the paper's results:
//
//   - HipMer: single-genome assembler — single k, a global (depth-independent)
//     extension threshold, and none of the metagenome-specific scaffolding
//     rules. It loses genome fraction and rRNA on uneven communities.
//   - Ray Meta: distributed but without aggregated communication, without the
//     iterative k strategy and without MetaHipMer's scaffolding; it scales
//     poorly and produces shorter contigs.
//   - Megahit: iterative k contig generator without scaffolding; fast,
//     single node.
//   - MetaSPAdes: iterative k with aggressive graph simplification and
//     scaffolding, restricted to one (shared-memory) node; high contiguity
//     with somewhat more misassemblies.
package baseline

import (
	"mhmgo/internal/core"
	"mhmgo/internal/hmm"
	"mhmgo/internal/seq"
)

// Assembler is a named configuration of the assembly pipeline.
type Assembler struct {
	// Name as reported in the comparison tables.
	Name string
	// SingleNode forces the run onto one virtual node regardless of the
	// requested machine size (shared-memory tools).
	SingleNode bool
	// Configure derives the assembler's pipeline configuration from a base
	// configuration describing the machine and library geometry.
	Configure func(base core.Config) core.Config
}

// MetaHipMer returns the paper's assembler (the full pipeline).
func MetaHipMer() Assembler {
	return Assembler{
		Name: "MetaHipMer",
		Configure: func(base core.Config) core.Config {
			return base
		},
	}
}

// HipMer returns the single-genome HipMer proxy: single k, global extension
// threshold, no rRNA rule, no bubble merging tuned for metagenomes.
func HipMer() Assembler {
	return Assembler{
		Name: "HipMer",
		Configure: func(base core.Config) core.Config {
			cfg := base
			cfg.KMax = cfg.KMin // no iterative k
			cfg.GlobalTHQ = 1   // fixed threshold regardless of depth
			cfg.RRNAProfile = nil
			cfg.LocalAssembly = false
			return cfg
		},
	}
}

// RayMeta returns the Ray Meta proxy: distributed, single k, unaggregated
// fine-grained communication, no software cache, no read localization, no
// scaffolding heuristics beyond plain span links.
func RayMeta() Assembler {
	return Assembler{
		Name: "RayMeta",
		Configure: func(base core.Config) core.Config {
			cfg := base
			cfg.KMax = cfg.KMin
			cfg.Aggregate = false
			cfg.SoftwareCache = false
			cfg.ReadLocalization = false
			cfg.WorkStealing = false
			cfg.UseComponents = false
			cfg.LocalAssembly = false
			cfg.Compaction = true
			cfg.RRNAProfile = base.RRNAProfile // Ray Meta does report rRNAs reasonably well
			return cfg
		},
	}
}

// Megahit returns the Megahit proxy: iterative k, contigs only (no
// scaffolding), single node.
func Megahit() Assembler {
	return Assembler{
		Name:       "Megahit",
		SingleNode: true,
		Configure: func(base core.Config) core.Config {
			cfg := base
			cfg.Scaffolding = false
			cfg.LocalAssembly = false
			cfg.RRNAProfile = nil
			return cfg
		},
	}
}

// MetaSPAdes returns the MetaSPAdes proxy: iterative k with aggressive
// simplification and scaffolding on a single node.
func MetaSPAdes() Assembler {
	return Assembler{
		Name:       "MetaSPAdes",
		SingleNode: true,
		Configure: func(base core.Config) core.Config {
			cfg := base
			cfg.RRNAProfile = nil
			// Aggressive graph simplification: tolerate more contradicting
			// extensions, which lengthens contigs at some misassembly cost.
			cfg.ErrorRate = base.ErrorRate * 2
			cfg.TBase = base.TBase + 1
			return cfg
		},
	}
}

// All returns the assemblers compared in Table I, MetaHipMer first.
func All() []Assembler {
	return []Assembler{MetaHipMer(), MetaSPAdes(), Megahit(), RayMeta(), HipMer()}
}

// RunOptions describes a comparison run.
type RunOptions struct {
	Ranks        int
	RanksPerNode int
	InsertSize   int
	RRNAProfile  *hmm.Profile
}

// Run assembles the reads with the given assembler proxy.
func Run(a Assembler, reads []seq.Read, opts RunOptions) (*core.Result, error) {
	base := core.DefaultConfig(opts.Ranks)
	if opts.RanksPerNode > 0 {
		base.RanksPerNode = opts.RanksPerNode
	}
	if opts.InsertSize > 0 {
		base.InsertSize = opts.InsertSize
		base.InsertStd = opts.InsertSize / 10
	}
	base.RRNAProfile = opts.RRNAProfile
	cfg := a.Configure(base)
	if a.SingleNode {
		// Shared-memory tools run within one node: same core count, no
		// network. Model this as all ranks on a single virtual node.
		cfg.RanksPerNode = cfg.Ranks
	}
	return core.Assemble(reads, cfg)
}
