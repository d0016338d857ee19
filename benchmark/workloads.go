package main

import (
	"fmt"
	"math"
	"path/filepath"

	"mhmgo/internal/fastx"
	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// benchProcs is the core count every workload is sized for: assemblies run
// with Config.Workers = benchProcs under GOMAXPROCS = benchProcs, and the
// server workload has benchProcs worker slots and as many tenants.
const benchProcs = 2

// workload is one named input shape. Why each exists is recorded in
// BENCHMARK.json; the numbers here are what the rationale refers to.
type workload struct {
	name string
	// Community and sequencing shape (100 bp reads, 1 % error).
	genomes, genomeLen int
	sigma, coverage    float64
	libs               []seq.Library // insert geometry in LibID order
	libShares          []float64     // coverage share per library
	// Virtual machine shape.
	ranks, ranksPerNode int
	// resume kills each run after the alignment stage of iteration 1 and
	// resumes it from the checkpoints.
	resume bool
	// strongRanks, when set, is a second machine size assembled once in the
	// traced run for core.sim_strong_eff (Fig. 4's number).
	strongRanks int
	// serve runs the assemblies as jobs of an in-process mhmserve.
	serve bool
}

var defaultLib = []seq.Library{{Name: "lib0", InsertSize: seq.DefaultInsertSize, InsertStd: seq.DefaultInsertStd}}

var workloads = []workload{
	{name: "mg18k_p16", genomes: 6, genomeLen: 20000, sigma: 1.2, coverage: 15,
		libs: defaultLib, ranks: 16, ranksPerNode: 4, strongRanks: 64},
	{name: "wide_p4096", genomes: 3, genomeLen: 6000, sigma: 1.2, coverage: 8,
		libs: defaultLib, ranks: 4096, ranksPerNode: 16},
	{name: "twolib_resume_p8", genomes: 4, genomeLen: 20000, sigma: 0.8, coverage: 15,
		libs: []seq.Library{
			{Name: "lib0", InsertSize: 300, InsertStd: 30},
			{Name: "lib1", InsertSize: 1500, InsertStd: 150},
		},
		libShares: []float64{0.7, 0.3}, ranks: 8, ranksPerNode: 4, resume: true},
	{name: "serve_2t", genomes: 2, genomeLen: 2000, sigma: 1.0, coverage: 12,
		libs: defaultLib, ranks: 4, ranksPerNode: 4, serve: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// input is one generated assembly input: the community it was drawn from
// (kept for evaluation) and the reads the program receives.
type input struct {
	comm  *sim.Community
	reads []seq.Read
}

// makeInput sequences mock community number `community` with the given seed.
//
// A community belongs to the workload, not to the seed, as the paper's MG64
// mock community belongs to its evaluation: community j is always generated
// from seed j+1, and the benchmark seed draws the sequencing run (fragment
// positions, insert sizes, errors, qualities). Measured on the 18,000-read
// shape, drawing the genomes from the seed too moves simulated seconds by
// tens of percent from one seed to the next (content-hashed placement of a
// few hundred contigs on 16 ranks is a lottery), which would bury any change
// a bound could catch; with the community fixed it is a few percent.
//
// For the same reason the abundance profile is not drawn at random: genome i
// takes the i-th quantile midpoint of the log-normal distribution. A handful
// of random draws at sigma 1.2 makes one community trivially easy and the
// next mostly unassemblable.
func makeInput(w workload, community int, seed int64) input {
	comm := sim.GenerateCommunity(sim.CommunityConfig{
		NumGenomes:     w.genomes,
		MeanGenomeLen:  w.genomeLen,
		AbundanceSigma: w.sigma,
		Seed:           int64(community) + 1,
	})
	var total float64
	for i := range comm.Genomes {
		p := (float64(i) + 0.5) / float64(len(comm.Genomes))
		z := math.Sqrt2 * math.Erfinv(2*p-1)
		comm.Genomes[i].Abundance = math.Exp(w.sigma * z)
		total += comm.Genomes[i].Abundance
	}
	for i := range comm.Genomes {
		comm.Genomes[i].Abundance /= total
	}
	cfg := sim.ReadConfig{
		ReadLen:    100,
		InsertSize: w.libs[0].InsertSize,
		InsertStd:  w.libs[0].InsertStd,
		ErrorRate:  0.01,
		Coverage:   w.coverage,
		Seed:       seed*1000 + int64(community) + 1,
	}
	if len(w.libs) > 1 {
		for i, lib := range w.libs {
			cfg.Libraries = append(cfg.Libraries, sim.LibraryConfig{
				Name: lib.Name, InsertSize: lib.InsertSize, InsertStd: lib.InsertStd, CoverageShare: w.libShares[i],
			})
		}
	}
	return input{comm: comm, reads: sim.SimulateReads(comm, cfg)}
}

// writeFASTQ writes one interleaved FASTQ file per library into dir, named
// after prefix, and returns the paths in LibID order.
func (in input) writeFASTQ(dir, prefix string, libs int) ([]string, error) {
	paths := make([]string, libs)
	for li := range paths {
		var block []seq.Read
		for _, r := range in.reads {
			if int(r.LibID) == li {
				block = append(block, r)
			}
		}
		paths[li] = filepath.Join(dir, fmt.Sprintf("%s.lib%d.fastq", prefix, li))
		if err := fastx.WriteReadsFASTQ(paths[li], block); err != nil {
			return nil, err
		}
	}
	return paths, nil
}
