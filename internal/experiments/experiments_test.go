package experiments

import (
	"strings"
	"testing"
)

// tinyScale keeps the experiment smoke tests fast.
func tinyScale() Scale {
	return Scale{
		Genomes:      5,
		GenomeLen:    2200,
		Coverage:     14,
		Ranks:        4,
		RanksPerNode: 2,
		NodeCounts:   []int{2, 4},
		Seed:         3,
	}
}

func TestScaleDefaults(t *testing.T) {
	// The drivers fill in nothing: both presets must set every field.
	for name, s := range map[string]Scale{"DefaultScale": DefaultScale(), "QuickScale": QuickScale()} {
		if s.Genomes <= 0 || s.GenomeLen <= 0 || s.Coverage <= 0 || s.Ranks <= 0 ||
			s.RanksPerNode <= 0 || len(s.NodeCounts) == 0 || s.Seed == 0 {
			t.Errorf("%s leaves a field unset: %+v", name, s)
		}
	}
	if DefaultScale().Genomes <= QuickScale().Genomes {
		t.Error("default scale should be larger than quick scale")
	}
}

// TestDriversReturnAssemblyErrors hands every driver that sizes its read set
// by coverage a Scale whose coverage rounds to zero read pairs, so the first
// assembly fails: each must return that error, not a short or empty table.
// (Table2WeakScaling sizes its read sets by pair count.)
func TestDriversReturnAssemblyErrors(t *testing.T) {
	s := tinyScale()
	s.Coverage = 1e-6
	drivers := map[string]func(Scale) error{
		"Table1Quality":              func(s Scale) error { _, err := Table1Quality(s); return err },
		"Fig3ReadLocalization":       func(s Scale) error { _, err := Fig3ReadLocalization(s); return err },
		"Fig4StrongScaling":          func(s Scale) error { _, err := Fig4StrongScaling(s); return err },
		"RayMetaComparison":          func(s Scale) error { _, err := RayMetaComparison(s); return err },
		"GrandChallengeFullVsSubset": func(s Scale) error { _, err := GrandChallengeFullVsSubset(s); return err },
		"Fig6NGA50PerGenome":         func(s Scale) error { _, err := Fig6NGA50PerGenome(s); return err },
		"Ablations":                  func(s Scale) error { _, err := Ablations(s); return err },
	}
	for name, run := range drivers {
		if err := run(s); err == nil || !strings.Contains(err.Error(), "no reads") {
			t.Errorf("%s on a community that yields no reads: error %v, want the assembly's \"no reads\" error", name, err)
		}
	}
}

func TestTable1QualitySmoke(t *testing.T) {
	res, err := Table1Quality(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 5 {
		t.Fatalf("expected 5 assembler reports, got %d", len(res.Reports))
	}
	var mhmFrac float64
	for _, rep := range res.Reports {
		if rep.NumSeqs == 0 {
			t.Errorf("%s produced no sequences", rep.Assembler)
		}
		if rep.Assembler == "MetaHipMer" {
			mhmFrac = rep.GenomeFraction
		}
	}
	if mhmFrac < 0.5 {
		t.Errorf("MetaHipMer genome fraction %v too low even at tiny scale", mhmFrac)
	}
	if !strings.Contains(res.Format(), "MetaHipMer") {
		t.Error("formatted table missing MetaHipMer row")
	}
}

func TestFig4StrongScalingSmoke(t *testing.T) {
	res, err := Fig4StrongScaling(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 scaling rows, got %d", len(res.Rows))
	}
	if res.Rows[0].Efficiency != 1 {
		t.Errorf("baseline efficiency should be 1, got %v", res.Rows[0].Efficiency)
	}
	if res.Rows[1].SimSeconds >= res.Rows[0].SimSeconds {
		t.Errorf("more nodes should reduce simulated time: %+v", res.Rows)
	}
	out := res.Format()
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "Figure 5") {
		t.Error("format missing figure sections")
	}
}

// TestFig3ReadLocalizationDoesNotSlowAlignment asserts Fig. 3's direction as
// far as it reproduces here: at every node count, read localization leaves
// the alignment and k-mer analysis stages no more than 5 % slower than
// without it. The paper reports a speedup; here the next iteration's contigs
// are re-owned by content hash, so owner locality cannot survive an
// iteration, and what localization keeps is cache clustering and balance.
func TestFig3ReadLocalizationDoesNotSlowAlignment(t *testing.T) {
	res, err := Fig3ReadLocalization(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(tinyScale().NodeCounts) {
		t.Fatalf("%d rows, want one per node count", len(res.Rows))
	}
	t.Log(res.Format())
	const margin = 1.05
	for _, row := range res.Rows {
		if row.AlignmentOn <= 0 || row.AlignmentOff <= 0 || row.KmerAnalysisOn <= 0 || row.KmerAnalysisOff <= 0 {
			t.Errorf("stage times missing: %+v", row)
		}
		if row.AlignmentOn > margin*row.AlignmentOff {
			t.Errorf("%d nodes: alignment %.5f with localization vs %.5f without (over %.2fx)", row.Nodes, row.AlignmentOn, row.AlignmentOff, margin)
		}
		if row.KmerAnalysisOn > margin*row.KmerAnalysisOff {
			t.Errorf("%d nodes: k-mer analysis %.5f with localization vs %.5f without (over %.2fx)", row.Nodes, row.KmerAnalysisOn, row.KmerAnalysisOff, margin)
		}
	}
	if !strings.Contains(res.Format(), "speedup") {
		t.Error("format missing speedup column")
	}
}

func TestTable2WeakScalingSmoke(t *testing.T) {
	res, err := Table2WeakScaling(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 weak-scaling points, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.KBasesPerSecPN <= 0 {
			t.Errorf("assembly rate missing for %+v", row)
		}
	}
	if res.Efficiency <= 0 {
		t.Error("weak scaling efficiency not computed")
	}
}

func TestGrandChallengeSmoke(t *testing.T) {
	res, err := GrandChallengeFullVsSubset(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.FullAssemblyBases <= res.SubsetAssemblyBases {
		t.Errorf("full assembly (%d) should be larger than the subset assembly (%d)",
			res.FullAssemblyBases, res.SubsetAssemblyBases)
	}
	if res.FullMapFraction <= res.SubsetMapFraction {
		t.Errorf("more reads should map to the full assembly: %.3f vs %.3f",
			res.FullMapFraction, res.SubsetMapFraction)
	}
	if !strings.Contains(res.Format(), "Grand challenge") {
		t.Error("format missing header")
	}
}

func TestFig6AndRayMetaSmoke(t *testing.T) {
	s := tinyScale()
	fig6, err := Fig6NGA50PerGenome(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig6.Rows) != s.Genomes {
		t.Fatalf("expected %d genomes in Fig6, got %d", s.Genomes, len(fig6.Rows))
	}
	anyNonZero := false
	for _, r := range fig6.Rows {
		if r.MetaHipMerNGA50 > 0 {
			anyNonZero = true
		}
	}
	if !anyNonZero {
		t.Error("all NGA50 values are zero")
	}

	ray, err := RayMetaComparison(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(ray.Rows) == 0 {
		t.Fatal("no Ray Meta comparison rows")
	}
	for _, row := range ray.Rows {
		if row.SpeedupOverRay <= 1 {
			t.Errorf("MetaHipMer should beat the Ray Meta proxy at %d nodes: %+v", row.Nodes, row)
		}
	}
}

func TestAblationsSmoke(t *testing.T) {
	res, err := Ablations(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 4 {
		t.Fatalf("expected several ablation rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Feature == "message aggregation" && row.Off <= row.On {
			t.Errorf("disabling aggregation should cost time: %+v", row)
		}
	}
	if !strings.Contains(res.Format(), "Ablations") {
		t.Error("format missing header")
	}
}
