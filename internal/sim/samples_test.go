package sim

import (
	"math"
	"reflect"
	"testing"
)

// TestNormalizedSamples pins the per-sample normalization rules: derived
// names and seeds, clamps, contaminant defaults and share normalization.
func TestNormalizedSamples(t *testing.T) {
	cfg := ReadConfig{
		ReadLen: 100, InsertSize: 280, Coverage: 10, Seed: 11,
		Samples: []SampleConfig{
			{},
			{Name: "lake", AbundanceSigma: -2, ContaminantFraction: 0.99},
			{Seed: 77, ContaminantFraction: 0.1, ContaminantLen: 800},
		},
	}
	samples := cfg.Normalized().Samples

	if samples[0].Name != "sample0" || samples[1].Name != "lake" || samples[2].Name != "sample2" {
		t.Errorf("sample names normalized to %q, %q, %q", samples[0].Name, samples[1].Name, samples[2].Name)
	}
	// Sample 0 inherits the parent seed exactly — the one-sample equivalence
	// guarantee — and later samples stride away from it.
	if samples[0].Seed != 11 {
		t.Errorf("sample 0 seed = %d, want the parent seed 11", samples[0].Seed)
	}
	if samples[1].Seed != 11+sampleSeedStride {
		t.Errorf("sample 1 seed = %d, want %d", samples[1].Seed, 11+sampleSeedStride)
	}
	if samples[2].Seed != 77 {
		t.Errorf("explicit sample seed = %d, want 77 honored verbatim", samples[2].Seed)
	}
	if samples[1].AbundanceSigma != 0 {
		t.Errorf("negative AbundanceSigma became %v, want 0", samples[1].AbundanceSigma)
	}
	if samples[1].ContaminantFraction != 0.9 {
		t.Errorf("ContaminantFraction 0.99 clamped to %v, want 0.9", samples[1].ContaminantFraction)
	}
	if samples[1].ContaminantLen != defaultContaminantLen {
		t.Errorf("unset ContaminantLen became %d, want default %d", samples[1].ContaminantLen, defaultContaminantLen)
	}
	if samples[2].ContaminantLen != 800 {
		t.Errorf("explicit ContaminantLen became %d, want 800", samples[2].ContaminantLen)
	}
	var sum float64
	for _, s := range samples {
		if s.CoverageShare <= 0 {
			t.Errorf("sample %s normalized to share %v; must be positive", s.Name, s.CoverageShare)
		}
		sum += s.CoverageShare
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("normalized sample shares sum to %v, want 1", sum)
	}

	// Library seeds stay unset under a Samples list (each sample re-derives
	// them from its own seed) but are honored when set explicitly.
	cfg.Libraries = []LibraryConfig{{InsertSize: 300}, {InsertSize: 900, Seed: 5}}
	libs := cfg.Normalized().Libraries
	if libs[0].Seed != 0 {
		t.Errorf("library seed under Samples = %d, want 0 (deferred to per-sample derivation)", libs[0].Seed)
	}
	if libs[1].Seed != 5 {
		t.Errorf("explicit library seed under Samples = %d, want 5", libs[1].Seed)
	}
	cfg.Samples = nil
	if got := cfg.Normalized().Libraries[0].Seed; got != 11+1000003 {
		t.Errorf("library seed without Samples = %d, want %d", got, 11+1000003)
	}
}

// TestOneSampleShorthandEquivalence is the simulator half of the golden
// equivalence contract: a one-entry Samples list with an empty SampleConfig{}
// must emit byte-identical reads to the no-samples shorthand, for both the
// single-library and multi-library forms.
func TestOneSampleShorthandEquivalence(t *testing.T) {
	c := normTestCommunity(t)
	base := ReadConfig{ReadLen: 100, InsertSize: 280, InsertStd: 25, ErrorRate: 0.01, Coverage: 8, Seed: 9}
	withSample := base
	withSample.Samples = []SampleConfig{{}}
	if !readsEqual(SimulateReads(c, base), SimulateReads(c, withSample)) {
		t.Error("one empty sample emits different reads than the no-samples shorthand")
	}

	multi := TwoLibraryReadConfig(8, 9)
	multiSample := multi
	multiSample.Samples = []SampleConfig{{}}
	if !readsEqual(SimulateReads(c, multi), SimulateReads(c, multiSample)) {
		t.Error("one empty sample emits different reads than the no-samples shorthand (two libraries)")
	}

	// TotalPairs budgets go through round(pairs*share) with share exactly 1.
	pairs := base
	pairs.Coverage = 0
	pairs.TotalPairs = 321
	pairsSample := pairs
	pairsSample.Samples = []SampleConfig{{}}
	if !readsEqual(SimulateReads(c, pairs), SimulateReads(c, pairsSample)) {
		t.Error("one empty sample emits different reads than the no-samples shorthand (TotalPairs budget)")
	}
}

// TestMultiSampleStructure checks the structural contract of a multi-sample
// read set: SampleID tags match the sample order, every sample contributes
// its share of the pairs, the samples draw distinct fragment streams, and
// pair indices continue across samples so IDs stay globally unique.
func TestMultiSampleStructure(t *testing.T) {
	c := normTestCommunity(t)
	cfg := ReadConfig{
		ReadLen: 80, InsertSize: 240, InsertStd: 20, ErrorRate: 0.01, TotalPairs: 300, Seed: 21,
		Samples: []SampleConfig{{}, {}, {}},
	}
	reads := SimulateReads(c, cfg)
	if len(reads) == 0 {
		t.Fatal("no reads simulated")
	}
	counts := map[uint8]int{}
	ids := map[string]bool{}
	for _, r := range reads {
		counts[r.SampleID]++
		if ids[r.ID] {
			t.Fatalf("duplicate read ID %q across samples", r.ID)
		}
		ids[r.ID] = true
	}
	if len(counts) != 3 {
		t.Fatalf("reads carry %d distinct SampleIDs, want 3", len(counts))
	}
	for sid, n := range counts {
		if n < 150 || n > 250 {
			t.Errorf("sample %d holds %d of %d reads; want roughly a third", sid, n, len(reads))
		}
	}

	// Equal-share samples of the same undrifted community must still draw
	// different fragments: each re-derives its generators from its own seed.
	perSample := make([][2]string, 3)
	for _, r := range reads {
		if perSample[r.SampleID][0] == "" {
			perSample[r.SampleID] = [2]string{r.ID, string(r.Seq)}
		}
	}
	if perSample[0][1] == perSample[1][1] && perSample[1][1] == perSample[2][1] {
		t.Error("all samples opened with an identical first read; sample streams are correlated")
	}
}

// TestSampleCommunityViews pins the abundance-view semantics: undrifted
// samples share the community pointer (no float is touched), scale lists
// override sigma, and a contaminant draws its configured read fraction.
func TestSampleCommunityViews(t *testing.T) {
	c := normTestCommunity(t)
	if got := sampleCommunity(c, SampleConfig{Name: "plain"}); got != c {
		t.Error("undrifted sample did not reuse the community pointer")
	}

	scaled := sampleCommunity(c, SampleConfig{Name: "s", AbundanceScale: []float64{2, 0.5}, AbundanceSigma: 9, Seed: 3})
	if len(scaled.Genomes) != len(c.Genomes) {
		t.Fatalf("scaled view has %d genomes, want %d", len(scaled.Genomes), len(c.Genomes))
	}
	if scaled.Genomes[0].Abundance != 2*c.Genomes[0].Abundance {
		t.Errorf("genome 0 abundance %v, want scaled %v", scaled.Genomes[0].Abundance, 2*c.Genomes[0].Abundance)
	}
	if scaled.Genomes[1].Abundance != 0.5*c.Genomes[1].Abundance {
		t.Errorf("genome 1 abundance %v, want scaled %v", scaled.Genomes[1].Abundance, 0.5*c.Genomes[1].Abundance)
	}
	if scaled.Genomes[2].Abundance != c.Genomes[2].Abundance {
		t.Errorf("genome beyond the scale list drifted from %v to %v", c.Genomes[2].Abundance, scaled.Genomes[2].Abundance)
	}
	if c.Genomes[0].Abundance == 2*c.Genomes[0].Abundance {
		t.Error("scaling mutated the shared community")
	}

	// A 20% contaminant must actually draw about 20% of the sample's reads.
	cfg := ReadConfig{
		ReadLen: 80, InsertSize: 240, InsertStd: 20, TotalPairs: 500, Seed: 5,
		Samples: []SampleConfig{{Name: "dirty", ContaminantFraction: 0.2}},
	}
	reads := SimulateReads(c, cfg)
	contam := 0
	for _, r := range reads {
		if sourceGenome(r.ID) == "contam_dirty" {
			contam++
		}
	}
	frac := float64(contam) / float64(len(reads))
	if frac < 0.12 || frac > 0.28 {
		t.Errorf("contaminant drew %.3f of the reads, want ~0.2", frac)
	}

	// The same sample config against the same community is deterministic.
	if !readsEqual(reads, SimulateReads(c, cfg)) {
		t.Error("contaminated sample simulation is not deterministic")
	}
}

// TestCoassemblyScenarioShape sanity-checks the preset the example, the
// recovery test and the benchmark all build on: the rare genome is rare in
// every sample, and the per-sample read sets are disjoint slices of the
// union.
func TestCoassemblyScenarioShape(t *testing.T) {
	c, rc := CoassemblyScenario(4, 42)
	if len(c.Genomes) != 4 {
		t.Fatalf("scenario community has %d genomes, want 4", len(c.Genomes))
	}
	rare := c.Genomes[3]
	for i := 0; i < 3; i++ {
		if c.Genomes[i].Abundance <= rare.Abundance {
			t.Fatalf("genome %d abundance %v not above the rare genome's %v", i, c.Genomes[i].Abundance, rare.Abundance)
		}
	}
	reads := SimulateReads(c, rc)
	perSample := map[uint8]int{}
	rarePerSample := map[uint8]int{}
	for _, r := range reads {
		perSample[r.SampleID]++
		if sourceGenome(r.ID) == rare.Name {
			rarePerSample[r.SampleID]++
		}
	}
	if len(perSample) != 4 {
		t.Fatalf("scenario reads carry %d distinct SampleIDs, want 4", len(perSample))
	}
	for sid, n := range perSample {
		if rf := float64(rarePerSample[sid]) / float64(n); rf > 0.12 {
			t.Errorf("sample %d drew %.3f of its reads from the rare genome; scenario abundance pinning failed", sid, rf)
		}
	}
}

// FuzzSampleConfigNormalize drives ReadConfig.Normalized over arbitrary
// sample parameters: normalization must be exactly idempotent, shares must
// come out positive and unit-sum, and every clamp must hold — for any input,
// not just the handcrafted table cases.
func FuzzSampleConfigNormalize(f *testing.F) {
	f.Add(int64(7), 2.0, -1.0, 0.5, 99.0, -3, int64(0), 100, 5.0)
	f.Add(int64(0), 0.0, 0.0, 0.0, 0.0, 0, int64(0), 0, 0.0)
	f.Add(int64(-500009), 1.0, 0.3, 0.0, 0.05, 5000, int64(12), 80, 0.0)
	f.Add(int64(9), -2.5, 1e300, -1e300, 0.9, 1<<30, int64(-1), 33, 1e-12)

	f.Fuzz(func(t *testing.T, seed int64, share0, share1, sigma, contamFrac float64,
		contamLen int, sampleSeed int64, readLen int, cov float64) {
		if math.IsNaN(share0) || math.IsNaN(share1) || math.IsNaN(sigma) ||
			math.IsNaN(contamFrac) || math.IsNaN(cov) ||
			math.IsInf(share0, 0) || math.IsInf(share1, 0) {
			t.Skip("NaN/Inf shares are rejected upstream by the CLI validators")
		}
		cfg := ReadConfig{
			ReadLen: readLen, Coverage: cov, Seed: seed,
			Samples: []SampleConfig{
				{CoverageShare: share0, AbundanceSigma: sigma, ContaminantFraction: contamFrac, ContaminantLen: contamLen},
				{CoverageShare: share1, Seed: sampleSeed},
				{},
			},
		}
		once := cfg.Normalized()
		twice := once.Normalized()
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("Normalized is not idempotent:\n once: %+v\ntwice: %+v", once, twice)
		}
		var sum float64
		for i, s := range once.Samples {
			if s.Name == "" {
				t.Errorf("sample %d kept an empty name", i)
			}
			if !(s.CoverageShare > 0) {
				t.Errorf("sample %d normalized to share %v; must be positive", i, s.CoverageShare)
			}
			sum += s.CoverageShare
			if s.AbundanceSigma < 0 {
				t.Errorf("sample %d kept negative sigma %v", i, s.AbundanceSigma)
			}
			if s.ContaminantFraction < 0 || s.ContaminantFraction > 0.9 {
				t.Errorf("sample %d ContaminantFraction %v escaped [0, 0.9]", i, s.ContaminantFraction)
			}
			if s.ContaminantFraction > 0 && s.ContaminantLen <= 0 {
				t.Errorf("sample %d has a contaminant with non-positive length %d", i, s.ContaminantLen)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("normalized sample shares sum to %v, want 1", sum)
		}
		// The trailing empty SampleConfig{} must inherit the parent geometry
		// implicitly: its seed derives from the parent's and nothing else is
		// invented for it.
		last := once.Samples[2]
		if last.Seed != seed+2*sampleSeedStride {
			t.Errorf("empty sample seed = %d, want derived %d", last.Seed, seed+2*sampleSeedStride)
		}
		// Library seeds stay deferred whenever a Samples list is present.
		cfg.Libraries = []LibraryConfig{{}}
		for _, lib := range cfg.Normalized().Libraries {
			if lib.Seed != 0 {
				t.Errorf("library seed %d filled under a Samples list; must defer to per-sample derivation", lib.Seed)
			}
		}
	})
}
