package sim

import "fmt"

// Presets approximating the paper's datasets at laptop scale. The structural
// parameters (number of organisms, abundance skew, error rate, paired-end
// geometry) follow the paper; the absolute genome and read counts are scaled
// down by several orders of magnitude so that experiments run in seconds.

// TwoLibraryReadConfig returns the paper-style two-library read
// configuration: a short-insert (300 bp) paired-end library carrying most of
// the coverage plus a long-insert (1500 bp) jumping library that contributes
// long-range links for the second scaffolding round. HipMer/MetaHipMer
// inputs combine libraries of increasing insert size exactly like this; pair
// the simulated reads with an assembly Config whose Libraries list matches
// (same order, same geometry).
func TwoLibraryReadConfig(coverage float64, seed int64) ReadConfig {
	return ReadConfig{
		ReadLen:   100,
		ErrorRate: 0.01,
		Coverage:  coverage,
		Seed:      seed,
		Libraries: []LibraryConfig{
			{Name: "pe300", InsertSize: 300, InsertStd: 30, CoverageShare: 0.75},
			{Name: "mp1500", InsertSize: 1500, InsertStd: 150, CoverageShare: 0.25},
		},
	}
}

// WetlandsLikeCommunity returns a community standing in for the Twitchell
// Wetlands soil sample: many organisms with a heavily skewed abundance
// distribution, so a fixed sequencing budget leaves many genomes at low
// coverage. lanes scales the community size (the paper uses 3 of 21 lanes
// for strong scaling and all 21 for the grand-challenge run).
func WetlandsLikeCommunity(organisms int, scale float64, seed int64) *Community {
	if organisms <= 0 {
		organisms = 96
	}
	if scale <= 0 {
		scale = 1
	}
	cfg := CommunityConfig{
		NumGenomes:     organisms,
		MeanGenomeLen:  int(8000 * scale),
		LenVariation:   0.5,
		AbundanceSigma: 1.8, // soil communities are extremely uneven
		RRNALen:        300,
		RRNACopies:     1,
		RRNADivergence: 0.04,
		RepeatLen:      200,
		RepeatCopies:   10,
		StrainFraction: 0.12,
		StrainSNPRate:  0.012,
		Seed:           seed,
	}
	return GenerateCommunity(cfg)
}

// TimeSeriesSamples returns n sample configurations modelling a time series
// over one environment: sample "t0" is the undrifted baseline and each later
// sample "tK" drifts every genome's abundance by an independent log-normal
// factor exp(N(0, sigma)). n <= 0 defaults to 2 samples, sigma <= 0 to 0.4 —
// enough drift that rare organisms move in and out of assemblable coverage
// between samples while the community's membership stays fixed.
func TimeSeriesSamples(n int, sigma float64) []SampleConfig {
	if n <= 0 {
		n = 2
	}
	if sigma <= 0 {
		sigma = 0.4
	}
	out := make([]SampleConfig, n)
	for i := range out {
		out[i].Name = fmt.Sprintf("t%d", i)
		if i > 0 {
			out[i].AbundanceSigma = sigma
		}
	}
	return out
}

// CoassemblyScenario builds the canonical co-assembly demonstration: a small
// community whose rarest organism is pinned at an abundance low enough that
// no single sample's share of the coverage budget can assemble it (its
// per-sample depth sits below the assembler's MinKmerCount=2 error filter),
// while the union of all samples comfortably can. The returned ReadConfig
// carries a TimeSeriesSamples list of the requested size; assemble each
// sample's reads alone versus the union to observe the recovery gap.
func CoassemblyScenario(samples int, seed int64) (*Community, ReadConfig) {
	if samples <= 0 {
		samples = 4
	}
	c := GenerateCommunity(CommunityConfig{
		NumGenomes:     4,
		MeanGenomeLen:  6000,
		LenVariation:   0.15,
		AbundanceSigma: 0.4,
		RRNALen:        200,
		RRNACopies:     1,
		RRNADivergence: 0.02,
		RepeatLen:      0,
		StrainFraction: 0,
		StrainSNPRate:  0.01,
		Seed:           seed,
	})
	// Pin the abundance profile so the scenario does not depend on the
	// log-normal draw: three common organisms and one rare one at 4%. At
	// total coverage 40 split over 4 samples, the rare genome sees ~1.6x
	// per sample (unassemblable: nearly every k-mer occurs once and is
	// discarded as a sequencing error) but ~6.4x in the union.
	pinned := []float64{0.32, 0.32, 0.32, 0.04}
	for i := range c.Genomes {
		if i < len(pinned) {
			c.Genomes[i].Abundance = pinned[i]
		}
	}
	rc := ReadConfig{
		ReadLen:    100,
		InsertSize: 280,
		InsertStd:  25,
		ErrorRate:  0.005,
		Coverage:   40,
		Seed:       seed + 1,
		Samples:    TimeSeriesSamples(samples, 0.25),
	}
	return c, rc
}

// WeakScalingPoint describes one row of the paper's Table II weak-scaling
// series: the number of genomic taxa and read pairs grows proportionally to
// the number of nodes.
type WeakScalingPoint struct {
	Nodes     int
	Taxa      int
	ReadPairs int
}

// WeakScalingSeries returns the Table II series scaled down by the given
// factor: the paper's points are (128, 5 taxa, 125 M reads) ... (1024, 40
// taxa, 1 B reads); here nodes are divided by nodeDiv and read pairs are
// basePairsPerTaxon per taxon.
func WeakScalingSeries(nodeDiv int, basePairsPerTaxon int) []WeakScalingPoint {
	if nodeDiv <= 0 {
		nodeDiv = 32
	}
	if basePairsPerTaxon <= 0 {
		basePairsPerTaxon = 1500
	}
	points := []struct{ nodes, taxa int }{
		{128, 5}, {256, 10}, {512, 20}, {1024, 40},
	}
	out := make([]WeakScalingPoint, len(points))
	for i, p := range points {
		out[i] = WeakScalingPoint{
			Nodes:     p.nodes / nodeDiv,
			Taxa:      p.taxa,
			ReadPairs: p.taxa * basePairsPerTaxon,
		}
		if out[i].Nodes < 1 {
			out[i].Nodes = 1
		}
	}
	return out
}
