package core

import (
	"testing"

	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// twoLibraryCommunity returns a community whose genomes are long enough for
// a 1500 bp jumping library, plus a two-library read set over it (300 bp
// paired-end + 1500 bp jumping library). The read set deliberately lists
// the LONG library first — reads tagged LibID 0 are mp1500 — so tests can
// prove the round schedule follows the geometry, not the configuration
// order.
func twoLibraryCommunity(t *testing.T) (*sim.Community, []seq.Read) {
	t.Helper()
	comm := sim.GenerateCommunity(sim.CommunityConfig{
		NumGenomes:     3,
		MeanGenomeLen:  9000,
		LenVariation:   0.2,
		AbundanceSigma: 0.5,
		RRNALen:        200,
		RRNADivergence: 0.02,
		StrainFraction: 0,
		Seed:           301,
	})
	both := sim.SimulateReads(comm, sim.ReadConfig{
		ReadLen:   80,
		ErrorRate: 0.005,
		Coverage:  16,
		Seed:      302,
		Libraries: []sim.LibraryConfig{
			{Name: "mp1500", InsertSize: 1500, InsertStd: 120, CoverageShare: 0.25},
			{Name: "pe300", InsertSize: 300, InsertStd: 25, CoverageShare: 0.75},
		},
	})
	return comm, both
}

// twoLibraryConfig matches the read set of twoLibraryCommunity: the library
// list mirrors the simulator's (LibID 0 = mp1500, LibID 1 = pe300). Read
// localization and the Bloom prefilter are disabled — as in
// TestAssemblyDeterministicAcrossRankCounts — because both are
// arrival-order-dependent and the rounds tests compare output across rank
// counts bit for bit.
func twoLibraryConfig(ranks int) Config {
	cfg := DefaultConfig(ranks)
	cfg.KMin, cfg.KMax, cfg.KStep = 21, 33, 12
	cfg.ReadLocalization = false
	cfg.UseBloom = false
	cfg.Libraries = []seq.Library{
		{Name: "mp1500", InsertSize: 1500, InsertStd: 120},
		{Name: "pe300", InsertSize: 300, InsertStd: 25},
	}
	return cfg
}

// TestScaffoldRoundsGolden pins the multi-library round schedule: one round
// per library in ascending insert-size order (even though the configuration
// lists the long library first), each round's scaffolds feeding the next
// round's contig set, and the whole thing bit-identical across rank counts.
func TestScaffoldRoundsGolden(t *testing.T) {
	_, both := twoLibraryCommunity(t)

	res, err := Assemble(both, twoLibraryConfig(4))
	if err != nil {
		t.Fatal(err)
	}

	if len(res.ScaffoldRounds) != 2 {
		t.Fatalf("expected 2 scaffolding rounds, got %d: %+v", len(res.ScaffoldRounds), res.ScaffoldRounds)
	}
	for i := 1; i < len(res.ScaffoldRounds); i++ {
		if res.ScaffoldRounds[i-1].InsertSize > res.ScaffoldRounds[i].InsertSize {
			t.Errorf("rounds not in ascending insert-size order: %+v", res.ScaffoldRounds)
		}
	}
	r0, r1 := res.ScaffoldRounds[0], res.ScaffoldRounds[1]
	if r0.Library != "pe300" || r1.Library != "mp1500" {
		t.Errorf("round order = %s, %s; want pe300, mp1500 (ascending insert size)", r0.Library, r1.Library)
	}
	if r0.LibIndex != 1 || r1.LibIndex != 0 {
		t.Errorf("round LibIndex = %d, %d; want 1, 0 (config listed the long library first)", r0.LibIndex, r1.LibIndex)
	}
	if r0.Scaffolds == 0 {
		t.Fatal("round 0 produced no scaffolds")
	}
	// Round 0's scaffolds are round 1's contigs (content-hash dedup may
	// only shrink the count, never grow it).
	if r1.InputContigs == 0 || r1.InputContigs > r0.Scaffolds {
		t.Errorf("round 1 consumed %d contigs from round 0's %d scaffolds", r1.InputContigs, r0.Scaffolds)
	}
	if len(res.Scaffolds) == 0 {
		t.Fatal("no final scaffolds")
	}
	// Final scaffold member IDs must index Result.Contigs (the final
	// round's emitted contig set).
	for _, sc := range res.Scaffolds {
		for _, id := range sc.ContigIDs {
			if id < 0 || id >= len(res.Contigs) {
				t.Fatalf("scaffold %d references contig %d of %d", sc.ID, id, len(res.Contigs))
			}
		}
	}

	// Bit-identical output and simulated seconds across rank counts,
	// rounds included.
	want := outputFingerprint(res)
	for _, ranks := range []int{1, 3, 8} {
		resP, err := Assemble(both, twoLibraryConfig(ranks))
		if err != nil {
			t.Fatal(err)
		}
		if got := outputFingerprint(resP); got != want {
			t.Errorf("P=%d: two-library output differs from P=4 baseline", ranks)
		}
	}
}

// TestMultiLibraryImprovesScaffolding asserts the acceptance scenario: on a
// community sequenced with a 300 bp and a 1500 bp library, round-based
// scaffolding yields a scaffold N50 at least as good as the single-library
// (300 bp) baseline. The baseline assembles the SAME reads with the legacy
// one-library config — i.e. the pre-multi-library pipeline, which applies
// the 300 bp geometry to every pair (mis-gapping the jumping pairs) — so
// the comparison isolates what round-based scaffolding buys.
func TestMultiLibraryImprovesScaffolding(t *testing.T) {
	_, both := twoLibraryCommunity(t)

	baseCfg := twoLibraryConfig(4)
	baseCfg.Libraries = nil
	baseCfg.InsertSize, baseCfg.InsertStd = 300, 25
	baseRes, err := Assemble(both, baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	bothRes, err := Assemble(both, twoLibraryConfig(4))
	if err != nil {
		t.Fatal(err)
	}

	baseN50 := baseRes.ScaffoldStats.N50
	bothN50 := bothRes.ScaffoldStats.N50
	t.Logf("scaffold N50: single-library=%d two-library=%d (scaffolds %d vs %d)",
		baseN50, bothN50, len(baseRes.Scaffolds), len(bothRes.Scaffolds))
	if bothN50 < baseN50 {
		t.Errorf("two-library N50 %d worse than single-library baseline %d", bothN50, baseN50)
	}
}

// TestSingleLibraryShorthandEquivalence pins the backward-compatibility
// contract: the legacy InsertSize/InsertStd shorthand and an explicit
// one-entry Libraries list are the same configuration — byte-identical
// output AND identical simulated seconds.
func TestSingleLibraryShorthandEquivalence(t *testing.T) {
	_, reads := smallCommunity(t, 2, 12)

	legacy := testConfig(4)
	legacyRes, err := Assemble(reads, legacy)
	if err != nil {
		t.Fatal(err)
	}

	explicit := testConfig(4)
	explicit.Libraries = []seq.Library{{Name: "pe", InsertSize: explicit.InsertSize, InsertStd: explicit.InsertStd}}
	explicitRes, err := Assemble(reads, explicit)
	if err != nil {
		t.Fatal(err)
	}

	if a, b := outputFingerprint(legacyRes), outputFingerprint(explicitRes); a != b {
		t.Error("explicit one-library config output differs from the legacy shorthand")
	}
	if legacyRes.SimSeconds != explicitRes.SimSeconds {
		t.Errorf("simulated seconds differ: legacy %v vs explicit %v", legacyRes.SimSeconds, explicitRes.SimSeconds)
	}
	if len(legacyRes.ScaffoldRounds) != 1 || len(explicitRes.ScaffoldRounds) != 1 {
		t.Errorf("single-library assemblies must run exactly one round: %d vs %d",
			len(legacyRes.ScaffoldRounds), len(explicitRes.ScaffoldRounds))
	}
}
