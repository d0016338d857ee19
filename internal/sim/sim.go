// Package sim implements MGSim, the synthetic metagenome generator the paper
// introduces for its weak-scaling study, extended here to stand in for all
// of the paper's datasets (MG64, Twitchell Wetlands lanes) since the real
// multi-terabyte read sets are not available in this environment.
//
// A Community is a set of reference genomes with relative abundances drawn
// from a log-normal distribution (as in the paper). Genomes contain planted
// conserved "ribosomal" marker regions shared (with small mutations) across
// all genomes, shared repeat segments, and optional SNP strain pairs — the
// features that make metagenome assembly harder than single-genome assembly.
// A WGSim-like simulator then produces paired-end reads with per-base errors
// and quality strings.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"mhmgo/internal/seq"
)

// Genome is one reference organism in a simulated community.
type Genome struct {
	Name      string
	Seq       []byte
	Abundance float64 // relative abundance, normalized to sum to 1 over the community
	// RRNAPositions are the start offsets of planted conserved marker copies.
	RRNAPositions []int
	// StrainOf is the name of the genome this one is a SNP strain of, or "".
	StrainOf string
}

// Community is a simulated metagenome: the reference genomes plus the
// conserved marker sequence planted into each of them.
type Community struct {
	Genomes    []Genome
	RRNAMarker []byte
}

// TotalBases returns the summed length of all reference genomes.
func (c *Community) TotalBases() int {
	n := 0
	for _, g := range c.Genomes {
		n += len(g.Seq)
	}
	return n
}

// CommunityConfig controls community generation.
type CommunityConfig struct {
	// NumGenomes is the number of distinct organisms.
	NumGenomes int
	// MeanGenomeLen is the average genome length in bases; individual genome
	// lengths vary uniformly by ±LenVariation (a fraction, e.g. 0.3).
	MeanGenomeLen int
	LenVariation  float64
	// AbundanceSigma is the sigma of the log-normal relative-abundance
	// distribution (the paper samples abundances log-normally).
	AbundanceSigma float64
	// RRNALen is the length of the conserved marker planted into every
	// genome; RRNACopies is how many copies each genome receives.
	RRNALen    int
	RRNACopies int
	// RRNADivergence is the per-base mutation rate applied to the marker in
	// each genome (conserved but not identical).
	RRNADivergence float64
	// RepeatLen/RepeatCopies plant a shared repeat segment into this many
	// genomes, creating inter-genome ambiguity.
	RepeatLen    int
	RepeatCopies int
	// StrainFraction is the fraction of genomes that are SNP strains of
	// another genome (polymorphism within species).
	StrainFraction float64
	// StrainSNPRate is the per-base SNP rate between a strain and its parent.
	StrainSNPRate float64
	// Seed seeds the deterministic generator.
	Seed int64
}

// DefaultCommunityConfig returns a small but structurally realistic
// community configuration.
func DefaultCommunityConfig() CommunityConfig {
	return CommunityConfig{
		NumGenomes:     8,
		MeanGenomeLen:  20000,
		LenVariation:   0.3,
		AbundanceSigma: 1.0,
		RRNALen:        400,
		RRNACopies:     1,
		RRNADivergence: 0.02,
		RepeatLen:      300,
		RepeatCopies:   3,
		StrainFraction: 0.1,
		StrainSNPRate:  0.01,
		Seed:           1,
	}
}

func (cfg CommunityConfig) withDefaults() CommunityConfig {
	def := DefaultCommunityConfig()
	if cfg.NumGenomes <= 0 {
		cfg.NumGenomes = def.NumGenomes
	}
	if cfg.MeanGenomeLen <= 0 {
		cfg.MeanGenomeLen = def.MeanGenomeLen
	}
	if cfg.LenVariation < 0 || cfg.LenVariation >= 1 {
		cfg.LenVariation = def.LenVariation
	}
	if cfg.AbundanceSigma <= 0 {
		cfg.AbundanceSigma = def.AbundanceSigma
	}
	if cfg.RRNALen <= 0 {
		cfg.RRNALen = def.RRNALen
	}
	if cfg.RRNACopies <= 0 {
		cfg.RRNACopies = def.RRNACopies
	}
	if cfg.RRNADivergence < 0 {
		cfg.RRNADivergence = def.RRNADivergence
	}
	if cfg.RepeatLen < 0 {
		cfg.RepeatLen = 0
	}
	if cfg.StrainSNPRate <= 0 {
		cfg.StrainSNPRate = def.StrainSNPRate
	}
	return cfg
}

func randomBases(r *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seq.BaseToChar(byte(r.Intn(4)))
	}
	return out
}

func mutate(r *rand.Rand, s []byte, rate float64) []byte {
	out := append([]byte(nil), s...)
	for i := range out {
		if r.Float64() < rate {
			out[i] = seq.BaseToChar(byte(r.Intn(4)))
		}
	}
	return out
}

// GenerateCommunity builds a deterministic synthetic community.
func GenerateCommunity(cfg CommunityConfig) *Community {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	marker := randomBases(r, cfg.RRNALen)
	repeat := randomBases(r, cfg.RepeatLen)

	c := &Community{RRNAMarker: marker}
	abundances := make([]float64, cfg.NumGenomes)
	var sum float64
	for i := range abundances {
		abundances[i] = math.Exp(r.NormFloat64() * cfg.AbundanceSigma)
		sum += abundances[i]
	}

	numStrains := int(float64(cfg.NumGenomes) * cfg.StrainFraction)
	for i := 0; i < cfg.NumGenomes; i++ {
		name := fmt.Sprintf("genome%03d", i)
		g := Genome{Name: name, Abundance: abundances[i] / sum}
		if i >= cfg.NumGenomes-numStrains && i > 0 {
			// Strain of an earlier genome: copy with SNPs.
			parent := c.Genomes[r.Intn(i)]
			g.Seq = mutate(r, parent.Seq, cfg.StrainSNPRate)
			g.StrainOf = parent.Name
			g.RRNAPositions = append([]int(nil), parent.RRNAPositions...)
			c.Genomes = append(c.Genomes, g)
			continue
		}
		length := cfg.MeanGenomeLen
		if cfg.LenVariation > 0 {
			span := int(float64(cfg.MeanGenomeLen) * cfg.LenVariation)
			length += r.Intn(2*span+1) - span
		}
		if length < 4*cfg.RRNALen {
			length = 4 * cfg.RRNALen
		}
		g.Seq = randomBases(r, length)
		// Plant conserved marker copies.
		for copyIdx := 0; copyIdx < cfg.RRNACopies; copyIdx++ {
			m := mutate(r, marker, cfg.RRNADivergence)
			pos := r.Intn(length - len(m))
			copy(g.Seq[pos:], m)
			g.RRNAPositions = append(g.RRNAPositions, pos)
		}
		// Plant shared repeats into the first RepeatCopies genomes.
		if cfg.RepeatLen > 0 && i < cfg.RepeatCopies {
			pos := r.Intn(length - cfg.RepeatLen)
			copy(g.Seq[pos:], repeat)
		}
		c.Genomes = append(c.Genomes, g)
	}
	return c
}

// LibraryConfig describes one paired-end library of a multi-library read
// simulation: HipMer/MetaHipMer data sets combine several libraries of
// increasing insert size (e.g. a 300 bp paired-end library plus a 1500 bp
// mate-pair-like library), and the scaffolder consumes them in rounds.
type LibraryConfig struct {
	// Name labels the library (defaults to "libN" for the N-th entry).
	Name string
	// ReadLen is the length of each read of a pair; 0 inherits the parent
	// ReadConfig.ReadLen.
	ReadLen int
	// InsertSize and InsertStd describe this library's fragment-length
	// distribution. A zero InsertSize inherits the parent ReadConfig's
	// geometry (InsertSize and, when the library's InsertStd is also unset,
	// InsertStd), so a single empty LibraryConfig is equivalent to the
	// no-libraries shorthand. An unset InsertStd otherwise defaults to
	// InsertSize/10; unlike the top-level field, a per-library zero cannot
	// request zero variance. InsertSize is clamped to 2*ReadLen (see
	// ReadConfig.Normalized).
	InsertSize int
	InsertStd  int
	// CoverageShare is this library's fraction of the total coverage (or
	// TotalPairs) budget. Shares are normalized to sum to 1. A zero share
	// means "unset", not "no reads": unset libraries split the budget the
	// set shares left unclaimed (or, if nothing is left, receive the mean
	// of the set shares before normalization); if every share is zero the
	// budget is split evenly.
	CoverageShare float64
	// Seed seeds this library's generator; 0 derives a distinct seed from
	// the parent ReadConfig.Seed and the library index.
	Seed int64
}

// SampleConfig describes one sample of a multi-sample co-assembly
// simulation. All samples sequence the same underlying community — the
// MetaHipMer2 co-assembly setting: many related samples of one environment —
// but each sample sees its own abundance profile (time-series drift,
// explicit per-genome scaling, or a sample-private contaminant) and draws
// its reads from its own deterministic generator.
type SampleConfig struct {
	// Name labels the sample (defaults to "sampleN" for the N-th entry).
	Name string
	// CoverageShare is this sample's fraction of the total Coverage (or
	// TotalPairs) budget, with the same unset/normalization semantics as
	// LibraryConfig.CoverageShare: zero means "unset", unset samples split
	// the budget the set shares left unclaimed, and shares are normalized
	// to sum to 1.
	CoverageShare float64
	// AbundanceSigma, when > 0, drifts every genome's abundance by an
	// independent log-normal factor exp(N(0, sigma)) drawn from the
	// sample's seed — the time-series model: same organisms, different
	// relative abundances per sampling event. Zero leaves the community's
	// abundances untouched.
	AbundanceSigma float64
	// AbundanceScale, when non-empty, multiplies genome i's abundance by
	// AbundanceScale[i] (entries beyond the list keep factor 1). It
	// overrides AbundanceSigma, giving tests and presets exact control
	// over a sample's abundance profile.
	AbundanceScale []float64
	// ContaminantFraction, when > 0, plants a sample-private contaminant
	// genome (random sequence, absent from every other sample and from the
	// community's references) sized so that this fraction of the sample's
	// reads are drawn from it. Clamped to [0, 0.9]. ContaminantLen is the
	// contaminant genome's length; unset defaults to 5000 bases, long
	// enough for every standard insert geometry.
	ContaminantFraction float64
	ContaminantLen      int
	// Seed seeds this sample's generators (abundance drift, contaminant
	// sequence, and the per-library read streams); 0 derives a distinct
	// seed from the parent ReadConfig.Seed and the sample index — sample 0
	// inherits the parent seed exactly, so a one-sample config reproduces
	// the no-samples shorthand byte for byte.
	Seed int64
}

// sampleSeedStride derives per-sample seeds: sample i gets
// cfg.Seed + sampleSeedStride*i, so sample 0 keeps the parent seed (the
// one-sample equivalence guarantee) and later samples get well-separated
// streams. The stride is a prime distinct from the per-library stride
// (1000003) so sample and library derivations cannot collide.
const sampleSeedStride = 500009

// defaultContaminantLen is the contaminant genome length when a sample sets
// ContaminantFraction without ContaminantLen: comfortably above the
// insert+4*std+2 minimum the fragment sampler requires for every standard
// library geometry.
const defaultContaminantLen = 5000

// ReadConfig controls paired-end read simulation (WGSim-like).
type ReadConfig struct {
	// ReadLen is the length of each read of a pair.
	ReadLen int
	// InsertSize and InsertStd describe the fragment-length distribution of
	// the (single) library. When Libraries is non-empty they serve only as
	// the inherited geometry for entries that leave InsertSize unset.
	// InsertStd treats zero as meaningful — every fragment is exactly
	// InsertSize long — and only a negative value takes the default.
	InsertSize int
	InsertStd  int
	// ErrorRate is the per-base substitution error probability.
	ErrorRate float64
	// Coverage is the mean fold-coverage of the community (weighted by
	// abundance); TotalPairs overrides it when > 0. With Libraries set, the
	// budget is divided between the libraries by CoverageShare.
	Coverage   float64
	TotalPairs int
	// Libraries, when non-empty, switches the simulator to multi-library
	// mode: each entry produces its own interleaved paired-end block (pairs
	// at indices 2i and 2i+1 within the concatenated output), and every read
	// is tagged with its library index in Read.LibID. An empty list is the
	// single-library shorthand: ReadLen/InsertSize/InsertStd above describe
	// library 0 and all reads carry LibID 0.
	Libraries []LibraryConfig
	// Samples, when non-empty, switches the simulator to multi-sample mode:
	// every entry sequences the same community (through its own abundance
	// view) with the full library structure above, the Coverage/TotalPairs
	// budget is divided between samples by CoverageShare, and every read is
	// tagged with its sample index in Read.SampleID. An empty list is the
	// single-sample shorthand: all reads carry SampleID 0, and a one-entry
	// Samples list with an empty SampleConfig{} is byte-identical to it.
	Samples []SampleConfig
	// Seed seeds the deterministic generator.
	Seed int64
}

// DefaultReadConfig returns a typical short-read configuration. The insert
// geometry is seq.DefaultInsertSize ± seq.DefaultInsertStd — the same
// defaults the assembler's Config assumes, so simulating with the defaults
// and assembling with the defaults agree about the library.
func DefaultReadConfig() ReadConfig {
	return ReadConfig{
		ReadLen:    100,
		InsertSize: seq.DefaultInsertSize,
		InsertStd:  seq.DefaultInsertStd,
		ErrorRate:  0.01,
		Coverage:   20,
		Seed:       2,
	}
}

// Normalized returns the effective configuration SimulateReads will use,
// with every default and clamp applied explicitly:
//
//   - unset (zero) ReadLen, InsertSize and Coverage take the
//     DefaultReadConfig values; InsertStd and ErrorRate treat zero as
//     meaningful (fixed-length fragments, error-free reads) and only
//     negative values are replaced (the default std and 0 respectively);
//   - InsertSize is clamped up to 2*ReadLen — a fragment cannot be shorter
//     than the two reads sequenced from its ends — and the clamped value is
//     visible in the returned config rather than applied silently;
//   - each LibraryConfig inherits ReadLen and receives a "libN" name where
//     unset; an entry with no InsertSize inherits the parent geometry
//     (including the parent InsertStd when its own is unset), so a single
//     empty LibraryConfig is equivalent to the no-libraries shorthand; any
//     still-unset std becomes InsertSize/10, the same 2*ReadLen clamp
//     applies, and the CoverageShares are normalized to sum to 1 (an
//     all-zero share list becomes an even split).
//
// Normalized is idempotent, so SimulateReads(c, cfg) and
// SimulateReads(c, cfg.Normalized()) produce identical reads.
//
// SimulateReads calls it internally; callers that need to know the exact
// effective geometry (e.g. to configure the assembler to match) should call
// it themselves and read the result.
func (cfg ReadConfig) Normalized() ReadConfig {
	def := DefaultReadConfig()
	if cfg.ReadLen <= 0 {
		cfg.ReadLen = def.ReadLen
	}
	if cfg.InsertSize <= 0 {
		cfg.InsertSize = def.InsertSize
	}
	if cfg.InsertSize < 2*cfg.ReadLen {
		cfg.InsertSize = 2 * cfg.ReadLen
	}
	if cfg.InsertStd < 0 {
		cfg.InsertStd = def.InsertStd
	}
	if cfg.ErrorRate < 0 {
		cfg.ErrorRate = 0
	}
	if cfg.Coverage <= 0 && cfg.TotalPairs <= 0 {
		cfg.Coverage = def.Coverage
	}
	if len(cfg.Libraries) > 0 {
		libs := append([]LibraryConfig(nil), cfg.Libraries...)
		shares := make([]float64, len(libs))
		for i := range libs {
			if libs[i].Name == "" {
				libs[i].Name = fmt.Sprintf("lib%d", i)
			}
			if libs[i].ReadLen <= 0 {
				libs[i].ReadLen = cfg.ReadLen
			}
			if libs[i].InsertSize <= 0 {
				// An entry with no geometry of its own inherits the parent
				// config's (already defaulted and clamped above), so
				// Libraries: []LibraryConfig{{}} matches the no-libraries
				// shorthand instead of silently taking the global default.
				libs[i].InsertSize = cfg.InsertSize
				if libs[i].InsertStd <= 0 && cfg.InsertStd > 0 {
					libs[i].InsertStd = cfg.InsertStd
				}
			}
			if libs[i].InsertSize < 2*libs[i].ReadLen {
				libs[i].InsertSize = 2 * libs[i].ReadLen
			}
			if libs[i].InsertStd <= 0 {
				libs[i].InsertStd = libs[i].InsertSize / 10
			}
			// Per-library seeds derive from the parent seed — except in
			// multi-sample mode, where each sample re-derives them from its
			// own sample seed (see SimulateReads): filling them here would
			// hand every sample the same fragment streams. An explicitly
			// set library seed is honored verbatim in every sample, which
			// deliberately correlates the samples.
			if libs[i].Seed == 0 && len(cfg.Samples) == 0 {
				libs[i].Seed = cfg.Seed + 1000003*int64(i+1)
			}
			shares[i] = libs[i].CoverageShare
		}
		fillShares(shares)
		for i := range libs {
			libs[i].CoverageShare = shares[i]
		}
		cfg.Libraries = libs
	}
	if len(cfg.Samples) > 0 {
		samples := append([]SampleConfig(nil), cfg.Samples...)
		shares := make([]float64, len(samples))
		for i := range samples {
			if samples[i].Name == "" {
				samples[i].Name = fmt.Sprintf("sample%d", i)
			}
			if samples[i].Seed == 0 {
				samples[i].Seed = cfg.Seed + sampleSeedStride*int64(i)
			}
			if samples[i].AbundanceSigma < 0 {
				samples[i].AbundanceSigma = 0
			}
			if samples[i].ContaminantFraction < 0 {
				samples[i].ContaminantFraction = 0
			}
			if samples[i].ContaminantFraction > 0.9 {
				samples[i].ContaminantFraction = 0.9
			}
			if samples[i].ContaminantFraction > 0 && samples[i].ContaminantLen <= 0 {
				samples[i].ContaminantLen = defaultContaminantLen
			}
			shares[i] = samples[i].CoverageShare
		}
		fillShares(shares)
		for i := range samples {
			samples[i].CoverageShare = shares[i]
		}
		cfg.Samples = samples
	}
	return cfg
}

// fillShares normalizes a coverage-share list in place, with the same
// semantics for libraries and samples. A non-positive share means "unset":
// unset entries split whatever the set shares left unclaimed, and if the set
// shares already claim everything, each unset entry gets the mean set share
// so it can never silently simulate zero reads. The division to a unit sum
// is skipped when the shares already sum to 1 within float drift — dividing
// by a sum a few ulps off 1 would nudge every share, making Normalized
// non-idempotent.
func fillShares(shares []float64) {
	shareSum, unset := 0.0, 0
	for i := range shares {
		if shares[i] <= 0 {
			shares[i] = 0
			unset++
		}
		shareSum += shares[i]
	}
	if unset > 0 {
		fill := (1 - shareSum) / float64(unset)
		if shareSum >= 1 {
			fill = shareSum / float64(len(shares)-unset)
		}
		for i := range shares {
			if shares[i] == 0 {
				shares[i] = fill
				shareSum += fill
			}
		}
	}
	if math.Abs(shareSum-1) > 1e-9 {
		for i := range shares {
			shares[i] /= shareSum
		}
	}
}

// SimulateReads generates paired-end reads from the community. The returned
// slice interleaves pairs: reads 2i and 2i+1 are mates. Read IDs encode the
// source genome, fragment start and pair index ("genome003:1523:7/1") so
// that evaluation and debugging can trace reads back to their origin.
//
// With cfg.Libraries set, each library's block of pairs is generated in
// sequence (pairing is preserved across the concatenation) and every read
// carries its library index in Read.LibID; pair indices continue across
// libraries so IDs stay globally unique. The effective geometry — including
// the 2*ReadLen insert clamp — is cfg.Normalized().
//
// With cfg.Samples set, each sample's reads are generated in sequence from
// that sample's abundance view of the community (see SampleConfig), every
// read additionally carries its sample index in Read.SampleID, and pair
// indices continue across samples. Each sample re-derives its unset library
// seeds from its own sample seed, so two samples never replay the same
// fragment stream.
func SimulateReads(c *Community, cfg ReadConfig) []seq.Read {
	cfg = cfg.Normalized()
	if len(cfg.Samples) == 0 {
		return simulateSample(c, cfg, 0, 0)
	}
	var reads []seq.Read
	pairBase := 0
	for si, s := range cfg.Samples {
		sub := cfg
		sub.Samples = nil
		sub.Seed = s.Seed
		// Re-normalizing with the sample seed fills the library seeds the
		// parent normalization deliberately left unset; every other field is
		// already normalized, and Normalized is idempotent over those.
		sub = sub.Normalized()
		if cfg.TotalPairs > 0 {
			sub.TotalPairs = int(math.Round(float64(cfg.TotalPairs) * s.CoverageShare))
			sub.Coverage = 0
		} else {
			sub.Coverage = cfg.Coverage * s.CoverageShare
		}
		block := simulateSample(sampleCommunity(c, s), sub, uint8(si), pairBase)
		pairBase += len(block) / 2
		reads = append(reads, block...)
	}
	return reads
}

// simulateSample generates one sample's reads: the single- or multi-library
// dispatch over that sample's community view. cfg must already be normalized
// and carry the sample's budget and seed; sampleID tags every read and
// pairBase offsets the pair indices encoded into read IDs.
func simulateSample(c *Community, cfg ReadConfig, sampleID uint8, pairBase int) []seq.Read {
	if len(cfg.Libraries) == 0 {
		return simulateLibrary(c, cfg, sampleID, 0, pairBase)
	}
	var reads []seq.Read
	for i, lib := range cfg.Libraries {
		libCfg := ReadConfig{
			ReadLen:    lib.ReadLen,
			InsertSize: lib.InsertSize,
			InsertStd:  lib.InsertStd,
			ErrorRate:  cfg.ErrorRate,
			Seed:       lib.Seed,
		}
		if cfg.TotalPairs > 0 {
			libCfg.TotalPairs = int(math.Round(float64(cfg.TotalPairs) * lib.CoverageShare))
		} else {
			libCfg.Coverage = cfg.Coverage * lib.CoverageShare
		}
		block := simulateLibrary(c, libCfg, sampleID, uint8(i), pairBase)
		pairBase += len(block) / 2
		reads = append(reads, block...)
	}
	return reads
}

// sampleCommunity returns the community as one sample sees it. An undrifted
// sample (no sigma, no scale list, no contaminant) gets the community
// pointer back unchanged — not a copy — so the one-sample shorthand touches
// no abundance float and stays bit-identical to the no-samples path.
//
// Drifted abundances are deliberately not renormalized to sum to 1: the
// fragment sampler weights each genome by abundance*length over the sum of
// those weights, so only relative abundances matter and renormalizing would
// perturb every float for no behavioral difference.
func sampleCommunity(c *Community, s SampleConfig) *Community {
	if s.AbundanceSigma == 0 && len(s.AbundanceScale) == 0 && s.ContaminantFraction == 0 {
		return c
	}
	view := &Community{RRNAMarker: c.RRNAMarker}
	view.Genomes = append([]Genome(nil), c.Genomes...)
	if len(s.AbundanceScale) > 0 {
		for i := range view.Genomes {
			if i < len(s.AbundanceScale) {
				f := s.AbundanceScale[i]
				if f < 0 {
					f = 0
				}
				view.Genomes[i].Abundance *= f
			}
		}
	} else if s.AbundanceSigma > 0 {
		dr := rand.New(rand.NewSource(s.Seed + 7919))
		for i := range view.Genomes {
			view.Genomes[i].Abundance *= math.Exp(dr.NormFloat64() * s.AbundanceSigma)
		}
	}
	if s.ContaminantFraction > 0 {
		// A sample-private contaminant: random sequence absent from every
		// other sample. Its abundance a_c solves
		// a_c*len_c / (a_c*len_c + S) = fraction, where S is the summed
		// abundance*length weight of the real genomes, so the fragment
		// sampler draws exactly that fraction of the sample's pairs from it.
		cr := rand.New(rand.NewSource(s.Seed + 104729))
		g := Genome{Name: "contam_" + s.Name, Seq: randomBases(cr, s.ContaminantLen)}
		var weightSum float64
		for _, og := range view.Genomes {
			weightSum += og.Abundance * float64(len(og.Seq))
		}
		f := s.ContaminantFraction
		g.Abundance = f * weightSum / ((1 - f) * float64(len(g.Seq)))
		view.Genomes = append(view.Genomes, g)
	}
	return view
}

// simulateLibrary generates one library's interleaved pair block. cfg must
// already be normalized; sampleID and libID tag every read and pairBase
// offsets the pair indices encoded into read IDs.
func simulateLibrary(c *Community, cfg ReadConfig, sampleID, libID uint8, pairBase int) []seq.Read {
	r := rand.New(rand.NewSource(cfg.Seed))

	// Effective bases weighted by abundance decide per-genome pair counts.
	var weightSum float64
	for _, g := range c.Genomes {
		weightSum += g.Abundance * float64(len(g.Seq))
	}
	totalPairs := cfg.TotalPairs
	if totalPairs <= 0 {
		totalBases := cfg.Coverage * float64(c.TotalBases())
		totalPairs = int(totalBases / float64(2*cfg.ReadLen))
	}

	var reads []seq.Read
	pairIdx := pairBase
	for gi := range c.Genomes {
		g := &c.Genomes[gi]
		if len(g.Seq) < cfg.InsertSize+4*cfg.InsertStd+2 {
			continue
		}
		w := g.Abundance * float64(len(g.Seq)) / weightSum
		pairs := int(math.Round(w * float64(totalPairs)))
		for p := 0; p < pairs; p++ {
			frag := cfg.InsertSize
			if cfg.InsertStd > 0 {
				frag += int(math.Round(r.NormFloat64() * float64(cfg.InsertStd)))
			}
			if frag < 2*cfg.ReadLen {
				frag = 2 * cfg.ReadLen
			}
			if frag >= len(g.Seq) {
				frag = len(g.Seq) - 1
			}
			start := r.Intn(len(g.Seq) - frag)
			fwdSeq := g.Seq[start : start+cfg.ReadLen]
			revSrc := g.Seq[start+frag-cfg.ReadLen : start+frag]
			fwd, fq := applyErrors(r, fwdSeq, cfg.ErrorRate)
			rev, rq := applyErrors(r, seq.ReverseComplement(revSrc), cfg.ErrorRate)
			idBase := fmt.Sprintf("%s:%d:%d", g.Name, start, pairIdx)
			reads = append(reads,
				seq.Read{ID: idBase + "/1", Seq: fwd, Qual: fq, LibID: libID, SampleID: sampleID},
				seq.Read{ID: idBase + "/2", Seq: rev, Qual: rq, LibID: libID, SampleID: sampleID},
			)
			pairIdx++
		}
	}
	return reads
}

// applyErrors copies s, introducing substitution errors at the given rate,
// and produces a quality string where erroneous bases tend to get lower
// quality values (as real base callers do, imperfectly).
func applyErrors(r *rand.Rand, s []byte, rate float64) ([]byte, []byte) {
	out := append([]byte(nil), s...)
	qual := make([]byte, len(s))
	for i := range out {
		if r.Float64() < rate {
			orig := out[i]
			for out[i] == orig {
				out[i] = seq.BaseToChar(byte(r.Intn(4)))
			}
			// Erroneous bases usually, but not always, get low quality.
			if r.Float64() < 0.7 {
				qual[i] = byte(33 + 2 + r.Intn(15))
			} else {
				qual[i] = byte(33 + 30 + r.Intn(10))
			}
		} else {
			qual[i] = byte(33 + 30 + r.Intn(10))
		}
	}
	return out, qual
}
