package eval

import (
	"math"
	"reflect"
	"testing"

	"mhmgo/internal/sim"
)

// abundanceTestCommunity builds a small strain-free community whose genomes
// are long enough for the default seed geometry.
func abundanceTestCommunity(t *testing.T) *sim.Community {
	t.Helper()
	cfg := sim.DefaultCommunityConfig()
	cfg.NumGenomes = 3
	cfg.MeanGenomeLen = 8000
	cfg.LenVariation = 0.1
	cfg.StrainFraction = 0
	cfg.RepeatLen = 0
	cfg.Seed = 23
	return sim.GenerateCommunity(cfg)
}

// TestAbundanceReportRecoversDrift scores the abundance estimator against
// the ground truth it was designed to recover: two samples of the same
// community, one with genome 0 scaled up 4x, localized onto a perfect
// assembly (the reference genomes themselves). The drifted sample's estimate
// for genome 0 must exceed the baseline sample's, and every estimate must be
// a valid unit-sum profile.
func TestAbundanceReportRecoversDrift(t *testing.T) {
	c := abundanceTestCommunity(t)
	rc := sim.ReadConfig{
		ReadLen: 100, InsertSize: 280, InsertStd: 25, ErrorRate: 0.005, Coverage: 12, Seed: 31,
		Samples: []sim.SampleConfig{
			{Name: "base"},
			{Name: "bloom", AbundanceScale: []float64{4, 1, 1}},
		},
	}
	reads := sim.SimulateReads(c, rc)
	assembly := make([][]byte, len(c.Genomes))
	for i, g := range c.Genomes {
		assembly[i] = g.Seq
	}

	report := AbundanceReport(assembly, reads, []string{"base", "bloom"}, c)
	if len(report) != 2 {
		t.Fatalf("report covers %d samples, want 2", len(report))
	}
	base, bloom := report[0], report[1]
	if base.Sample != "base" || bloom.Sample != "bloom" {
		t.Fatalf("sample names %q, %q", base.Sample, bloom.Sample)
	}
	for _, sa := range report {
		if sa.Reads == 0 || sa.Localized == 0 {
			t.Fatalf("sample %s localized %d of %d reads; expected a perfect assembly to localize plenty",
				sa.Sample, sa.Localized, sa.Reads)
		}
		if sa.Localized > sa.Reads {
			t.Fatalf("sample %s localized more reads (%d) than it has (%d)", sa.Sample, sa.Localized, sa.Reads)
		}
		var sum float64
		for _, g := range sa.PerGenome {
			if g.Abundance < 0 {
				t.Errorf("sample %s genome %s has negative abundance %v", sa.Sample, g.Name, g.Abundance)
			}
			sum += g.Abundance
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("sample %s abundance estimates sum to %v, want 1", sa.Sample, sum)
		}
	}
	if bloom.PerGenome[0].Abundance <= base.PerGenome[0].Abundance {
		t.Errorf("4x-scaled genome estimated at %v in the drifted sample vs %v in the baseline; drift not recovered",
			bloom.PerGenome[0].Abundance, base.PerGenome[0].Abundance)
	}
	// The scaled sample's genome-0 estimate should also be the clear
	// majority of its own profile (4/(4+1+1) of the read mass, roughly).
	if bloom.PerGenome[0].Abundance < 0.45 {
		t.Errorf("4x-scaled genome estimated at %v of its sample, want the dominant share", bloom.PerGenome[0].Abundance)
	}

	// Determinism: the same inputs must produce an identical report.
	again := AbundanceReport(assembly, reads, []string{"base", "bloom"}, c)
	if !reflect.DeepEqual(report, again) {
		t.Error("AbundanceReport is not deterministic across calls")
	}
}

// TestAbundanceReportWithoutCommunity pins the nil-community mode the CLI
// uses on real (reference-free) inputs: per-sequence localization counts are
// reported, names fall back to "sampleN", and no per-genome rollup appears.
func TestAbundanceReportWithoutCommunity(t *testing.T) {
	c := abundanceTestCommunity(t)
	rc := sim.ReadConfig{
		ReadLen: 100, InsertSize: 280, InsertStd: 25, TotalPairs: 200, Seed: 31,
		Samples: []sim.SampleConfig{{}, {}},
	}
	reads := sim.SimulateReads(c, rc)
	assembly := [][]byte{c.Genomes[0].Seq, c.Genomes[1].Seq}

	report := AbundanceReport(assembly, reads, nil, nil)
	if len(report) != 2 {
		t.Fatalf("report covers %d samples, want 2", len(report))
	}
	for i, sa := range report {
		want := "sample0"
		if i == 1 {
			want = "sample1"
		}
		if sa.Sample != want {
			t.Errorf("sample %d named %q, want %q", i, sa.Sample, want)
		}
		if len(sa.PerGenome) != 0 {
			t.Errorf("sample %d has a per-genome rollup without a community", i)
		}
		if len(sa.PerSeq) != len(assembly) {
			t.Fatalf("sample %d PerSeq has %d entries, want %d", i, len(sa.PerSeq), len(assembly))
		}
		sum := 0
		for _, n := range sa.PerSeq {
			sum += n
		}
		if sum != sa.Localized {
			t.Errorf("sample %d PerSeq sums to %d, want Localized %d", i, sum, sa.Localized)
		}
	}

	// Reads carrying only SampleID 0 still yield a one-entry report.
	single := AbundanceReport(assembly, reads[:4], nil, nil)
	_ = single
	for _, r := range reads[:4] {
		if r.SampleID != 0 {
			return // sample 0's block is at least 4 reads in this config; skip if not
		}
	}
	if len(single) != 1 {
		t.Errorf("single-sample reads produced a %d-entry report, want 1", len(single))
	}
}
