package baseline

import (
	"testing"

	"mhmgo/internal/eval"
	"mhmgo/internal/hmm"
	"mhmgo/internal/sim"
)

func TestAllAndByName(t *testing.T) {
	all := All()
	if len(all) != 5 || all[0].Name != "MetaHipMer" {
		t.Fatalf("All() = %v", names(all))
	}
	// Table I tells its rows apart by name alone.
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || seen[a.Name] {
			t.Errorf("assembler name %q is empty or repeated in %v", a.Name, names(all))
		}
		seen[a.Name] = true
	}
}

func names(as []Assembler) []string {
	var out []string
	for _, a := range as {
		out = append(out, a.Name)
	}
	return out
}

func TestProxiesProduceDifferentConfigurations(t *testing.T) {
	comm := sim.GenerateCommunity(sim.CommunityConfig{
		NumGenomes: 4, MeanGenomeLen: 3000, AbundanceSigma: 1.2, RRNALen: 200, Seed: 61, StrainFraction: 0,
	})
	reads := sim.SimulateReads(comm, sim.ReadConfig{
		ReadLen: 80, InsertSize: 220, InsertStd: 15, ErrorRate: 0.01, Coverage: 12, Seed: 62,
	})
	profile := hmm.BuildProfile([][]byte{comm.RRNAMarker}, 0.9)
	opts := RunOptions{Ranks: 4, RanksPerNode: 2, InsertSize: 220, RRNAProfile: profile}

	mhm, err := Run(MetaHipMer(), reads, opts)
	if err != nil {
		t.Fatal(err)
	}
	hip, err := Run(HipMer(), reads, opts)
	if err != nil {
		t.Fatal(err)
	}
	ray, err := Run(RayMeta(), reads, opts)
	if err != nil {
		t.Fatal(err)
	}
	mega, err := Run(Megahit(), reads, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Megahit proxy never scaffolds.
	if len(mega.Scaffolds) != 0 {
		t.Error("Megahit proxy should not produce scaffolds")
	}
	// Ray Meta's unaggregated communication must cost more simulated time
	// than MetaHipMer on the same machine.
	if ray.SimSeconds <= mhm.SimSeconds {
		t.Errorf("Ray Meta proxy (%.4fs) should be slower than MetaHipMer (%.4fs)",
			ray.SimSeconds, mhm.SimSeconds)
	}

	// Quality ordering on an uneven community: MetaHipMer should recover at
	// least as much of the community as the single-genome HipMer proxy.
	eopts := eval.DefaultOptions()
	mhmRep := eval.Evaluate("mhm", mhm.FinalSequences(), comm, eopts)
	hipRep := eval.Evaluate("hip", hip.FinalSequences(), comm, eopts)
	if mhmRep.GenomeFraction+0.03 < hipRep.GenomeFraction {
		t.Errorf("MetaHipMer genome fraction (%.3f) should not trail HipMer (%.3f)",
			mhmRep.GenomeFraction, hipRep.GenomeFraction)
	}
}
