package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"mhmgo/internal/eval"
	"mhmgo/internal/hmm"
	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// smallCommunity returns a small community and reads suitable for fast
// end-to-end assembly tests.
func smallCommunity(t *testing.T, genomes int, coverage float64) (*sim.Community, []seq.Read) {
	t.Helper()
	comm := sim.GenerateCommunity(sim.CommunityConfig{
		NumGenomes:     genomes,
		MeanGenomeLen:  4000,
		LenVariation:   0.2,
		AbundanceSigma: 0.6,
		RRNALen:        200,
		RRNADivergence: 0.02,
		StrainFraction: 0,
		Seed:           101,
	})
	reads := sim.SimulateReads(comm, sim.ReadConfig{
		ReadLen:    80,
		InsertSize: 220,
		InsertStd:  15,
		ErrorRate:  0.005,
		Coverage:   coverage,
		Seed:       102,
	})
	return comm, reads
}

func testConfig(ranks int) Config {
	cfg := DefaultConfig(ranks)
	cfg.KMin, cfg.KMax, cfg.KStep = 21, 33, 12
	cfg.InsertSize, cfg.InsertStd = 220, 15
	return cfg
}

// stageIdx returns a stage's index in the stage table.
func stageIdx(t testing.TB, name string) int {
	t.Helper()
	i, ok := stageByName(name)
	if !ok {
		t.Fatalf("stage %q is not in the stage table", name)
	}
	return i
}

func TestKValues(t *testing.T) {
	cfg := Config{KMin: 21, KMax: 55, KStep: 12}
	ks := cfg.KValues()
	want := []int{21, 33, 45}
	if len(ks) != len(want) {
		t.Fatalf("KValues = %v, want %v", ks, want)
	}
	for i := range want {
		if ks[i] != want[i] {
			t.Errorf("KValues = %v, want %v", ks, want)
			break
		}
	}
	// Even k values are bumped to odd ones.
	cfg = Config{KMin: 20, KMax: 20, KStep: 2}
	ks = cfg.KValues()
	if len(ks) != 1 || ks[0] != 21 {
		t.Errorf("even k not adjusted: %v", ks)
	}
}

func TestAssembleErrors(t *testing.T) {
	if _, err := Assemble(nil, DefaultConfig(2)); err == nil {
		t.Error("empty read set should fail")
	}
	cfg := DefaultConfig(2)
	cfg.KMin, cfg.KMax = 200, 300
	if _, err := Assemble([]seq.Read{{ID: "r", Seq: []byte("ACGT")}}, cfg); err == nil {
		t.Error("k out of range should fail")
	}

	// A fault that names no step of the run's schedule can never fire; it
	// must be refused up front, not accepted and silently ignored.
	reads := []seq.Read{{ID: "r", Seq: []byte("ACGT")}}
	faults := []struct {
		name    string
		stage   string
		it      int
		mutate  func(*Config)
		wantMsg string
	}{
		{name: "unknown stage", stage: "polishing", wantMsg: "unknown stage"},
		{name: "kmer_merge in iteration 0", stage: StageKmerMerge, wantMsg: "runs in iterations [1]"},
		{name: "scaffolding before the final iteration", stage: StageScaffolding, wantMsg: "runs in iterations [1]"},
		{name: "iteration past the last k", stage: StageAlignment, it: 7, wantMsg: "runs in iterations [0 1]"},
		{name: "negative iteration", stage: StageAlignment, it: -1, wantMsg: "runs in iterations [0 1]"},
		{name: "local assembly disabled", stage: StageLocalAssembly,
			mutate: func(c *Config) { c.LocalAssembly = false }, wantMsg: "not on this configuration's schedule"},
		{name: "scaffolding disabled", stage: StageScaffolding, it: 1,
			mutate: func(c *Config) { c.Scaffolding = false }, wantMsg: "not on this configuration's schedule"},
	}
	for _, tc := range faults {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(2)
			cfg.FailAfterStage, cfg.FailAtIteration = tc.stage, tc.it
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			_, err := Assemble(reads, cfg)
			if err == nil || errors.Is(err, ErrFaultInjected) {
				t.Fatalf("Assemble = %v, want a validation error", err)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("error = %v, want message containing %q", err, tc.wantMsg)
			}
		})
	}
}

func TestEndToEndAssemblyQuality(t *testing.T) {
	comm, reads := smallCommunity(t, 3, 18)
	cfg := testConfig(4)
	cfg.RRNAProfile = hmm.BuildProfile([][]byte{comm.RRNAMarker}, 0.9)
	res, err := Assemble(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) == 0 {
		t.Fatal("no contigs assembled")
	}
	if res.SimSeconds <= 0 || res.WallSeconds <= 0 {
		t.Error("timings not recorded")
	}
	if stages := res.Stages(); len(stages) < 5 {
		t.Errorf("expected stage timings for all stages, got %v", stages)
	}
	if res.AlignedReadFrac < 0.8 {
		t.Errorf("only %v of reads aligned back to contigs", res.AlignedReadFrac)
	}

	// Reference-based quality: most of each genome should be recovered and
	// nothing should be badly misassembled.
	eopts := eval.DefaultOptions()
	eopts.RRNAProfile = cfg.RRNAProfile
	report := eval.Evaluate("MetaHipMer", res.FinalSequences(), comm, eopts)
	if report.GenomeFraction < 0.85 {
		t.Errorf("genome fraction %v too low", report.GenomeFraction)
	}
	// Metagenome assemblies do contain some misassemblies (Table I reports
	// hundreds for real assemblers); just require that they stay a small
	// minority of the output sequences.
	if limit := 3 + report.NumSeqs/5; report.Misassemblies > limit {
		t.Errorf("too many misassemblies: %d of %d sequences", report.Misassemblies, report.NumSeqs)
	}
	if report.RRNACount == 0 {
		t.Error("no rRNA regions recovered")
	}
	// Scaffolds/contigs should cover a large portion of the 3-genome
	// community in total length.
	if report.TotalLen < comm.TotalBases()*3/4 {
		t.Errorf("assembly length %d much smaller than community %d", report.TotalLen, comm.TotalBases())
	}
}

func TestAssemblyDeterministicAcrossRankCounts(t *testing.T) {
	_, reads := smallCommunity(t, 2, 15)
	// Localization changes read ordering and the Bloom prefilter drops the
	// first sighting of each k-mer (whose identity depends on arrival
	// order), so both are disabled for a bit-identical comparison.
	cfgA := testConfig(2)
	cfgA.ReadLocalization = false
	cfgA.UseBloom = false
	cfgB := testConfig(6)
	cfgB.ReadLocalization = false
	cfgB.UseBloom = false
	resA, err := Assemble(reads, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Assemble(reads, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if len(resA.Contigs) != len(resB.Contigs) {
		t.Fatalf("contig count differs across rank counts: %d vs %d", len(resA.Contigs), len(resB.Contigs))
	}
	for i := range resA.Contigs {
		if string(resA.Contigs[i].Seq) != string(resB.Contigs[i].Seq) {
			t.Errorf("contig %d differs across rank counts", i)
		}
	}
}

func TestScalingReducesSimulatedTime(t *testing.T) {
	_, reads := smallCommunity(t, 2, 12)
	times := map[int]float64{}
	// One rank per node in both runs so that the on-node/off-node mix is
	// comparable and only the degree of parallelism changes.
	for _, ranks := range []int{2, 8} {
		cfg := testConfig(ranks)
		cfg.RanksPerNode = 1
		res, err := Assemble(reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		times[ranks] = res.SimSeconds
	}
	if times[8] >= times[2] {
		t.Errorf("simulated time should drop with more ranks: %v", times)
	}
}

func TestFreeCommunicationAblation(t *testing.T) {
	// CostSet with a zero cost model must run the whole pipeline with zero
	// simulated time (every operation still executes and is counted), and
	// must produce the same assembly as the default-cost run.
	_, reads := smallCommunity(t, 2, 12)
	free := testConfig(4)
	free.CostSet = true
	freeRes, err := Assemble(reads, free)
	if err != nil {
		t.Fatal(err)
	}
	if freeRes.SimSeconds != 0 {
		t.Errorf("free-communication run charged %v simulated seconds, want 0", freeRes.SimSeconds)
	}
	if freeRes.Stats.Messages == 0 {
		t.Error("free-communication run should still count its messages")
	}
	paidRes, err := Assemble(reads, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if paidRes.SimSeconds <= 0 {
		t.Error("default-cost run should charge simulated time")
	}
	if len(freeRes.FinalSequences()) != len(paidRes.FinalSequences()) {
		t.Errorf("cost model must not change assembly results: %d vs %d sequences",
			len(freeRes.FinalSequences()), len(paidRes.FinalSequences()))
	}
}

func TestDepthDependentThresholdBeatsGlobalOnQuality(t *testing.T) {
	comm, reads := smallCommunity(t, 3, 25)
	meta := testConfig(4)
	hip := testConfig(4)
	hip.GlobalTHQ = 1 // HipMer-style fixed threshold
	metaRes, err := Assemble(reads, meta)
	if err != nil {
		t.Fatal(err)
	}
	hipRes, err := Assemble(reads, hip)
	if err != nil {
		t.Fatal(err)
	}
	eopts := eval.DefaultOptions()
	metaRep := eval.Evaluate("meta", metaRes.FinalSequences(), comm, eopts)
	hipRep := eval.Evaluate("hip", hipRes.FinalSequences(), comm, eopts)
	if metaRep.GenomeFraction+0.02 < hipRep.GenomeFraction {
		t.Errorf("depth-dependent threshold should not lose coverage: %v vs %v",
			metaRep.GenomeFraction, hipRep.GenomeFraction)
	}
}

func TestScaffoldingDisabled(t *testing.T) {
	_, reads := smallCommunity(t, 2, 12)
	cfg := testConfig(3)
	cfg.Scaffolding = false
	res, err := Assemble(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scaffolds) != 0 {
		t.Error("scaffolds produced despite Scaffolding=false")
	}
	if len(res.FinalSequences()) != len(res.Contigs) {
		t.Error("FinalSequences should fall back to contigs")
	}
}

func TestMinContigLenFilter(t *testing.T) {
	_, reads := smallCommunity(t, 2, 12)
	cfg := testConfig(2)
	cfg.Scaffolding = false
	cfg.MinContigLen = 500
	res, err := Assemble(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Contigs {
		if len(c.Seq) < 500 {
			t.Errorf("contig of length %d survived the MinContigLen filter", len(c.Seq))
		}
	}
}

// TestStepTrafficColumns: each step record carries the step's machine-wide
// traffic as integer sums over the ranks, so the columns must not depend on
// Workers; nor may the mean barrier wait, which lies between 0 and the
// step's seconds. Every step runs a collective, and every rank counts each barrier;
// the steps' sums stay within the run's totals (localization and the final
// emit run between the windows); and on one virtual node nothing is
// off-node. Equality across a kill and resume is assertSameRun's, which
// compares every step record.
func TestStepTrafficColumns(t *testing.T) {
	_, reads := smallCommunity(t, 2, 8)
	const p = 4
	traffic := func(ev ProgressEvent) [6]uint64 {
		return [6]uint64{ev.Messages, ev.OffNodeMessages, ev.BytesSent, ev.OffNodeBytes, ev.RemoteGets, ev.Barriers}
	}
	for _, perNode := range []int{2, p} {
		var first []ProgressEvent
		for _, workers := range []int{1, 4} {
			cfg := testConfig(p)
			cfg.RanksPerNode, cfg.Workers = perNode, workers
			res, err := Assemble(reads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var sum [6]uint64
			waited := false
			for _, ev := range res.Steps {
				if ev.Barriers == 0 || ev.Barriers%p != 0 || ev.Messages == 0 || ev.OffNodeMessages > ev.Messages {
					t.Errorf("%d ranks per node, Workers=%d: step %d:%s has traffic %+v", perNode, workers, ev.Iteration, ev.Stage, ev)
				}
				// A rank's waits are part of its clock's advance over the
				// window, so their mean is too.
				if ev.BarrierWait < 0 || ev.BarrierWait > ev.Seconds {
					t.Errorf("%d ranks per node, Workers=%d: step %d:%s waits %v of its %v seconds", perNode, workers, ev.Iteration, ev.Stage, ev.BarrierWait, ev.Seconds)
				}
				waited = waited || ev.BarrierWait > 0
				if perNode == p && (ev.OffNodeMessages != 0 || ev.OffNodeBytes != 0) {
					t.Errorf("one node, Workers=%d: step %d:%s went off-node: %+v", workers, ev.Iteration, ev.Stage, ev)
				}
				for i, v := range traffic(ev) {
					sum[i] += v
				}
			}
			if !waited {
				t.Errorf("%d ranks per node, Workers=%d: no step waited at a barrier", perNode, workers)
			}
			s := res.Stats
			total := traffic(ProgressEvent{Messages: s.Messages, OffNodeMessages: s.OffNodeMessages, BytesSent: s.BytesSent,
				OffNodeBytes: s.OffNodeBytes, RemoteGets: s.RemoteGets, Barriers: s.Barriers})
			for i := range sum {
				if sum[i] > total[i] {
					t.Errorf("%d ranks per node, Workers=%d: the steps' traffic %v exceeds the run's %v", perNode, workers, sum, total)
					break
				}
			}
			if first == nil {
				first = res.Steps
			} else if !reflect.DeepEqual(res.Steps, first) {
				t.Errorf("%d ranks per node: Workers=%d steps %+v\n!= Workers=1 steps %+v", perNode, workers, res.Steps, first)
			}
		}
	}
}

// TestAlignedReadFracPinned: the aligned fraction divides the all-reduced
// aligned count by the run's read count, which every rank knows, where it
// used to all-reduce each rank's count of the reads it aligned. Both counts
// are the whole input: read localization keeps every read, the trailing
// unpaired one of an odd count included. The fraction is pinned to the bits
// the second all-reduce gave (841 of 853 reads) at P in {1, 3, 8}, and a run
// killed after the last iteration's k-mer analysis, so that the resume runs
// the last alignment, gives the same bits.
func TestAlignedReadFracPinned(t *testing.T) {
	const want = 0.9859320046893317
	_, reads := smallCommunity(t, 2, 8)
	reads = reads[:len(reads)-1] // an odd count
	for _, p := range []int{1, 3, 8} {
		res, err := Assemble(reads, testConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		if res.AlignedReadFrac != want {
			t.Errorf("P=%d: aligned read fraction %v, want %v", p, res.AlignedReadFrac, want)
		}
		cfg := testConfig(p)
		cfg.CheckpointDir = t.TempDir()
		cfg.FailAfterStage, cfg.FailAtIteration = StageKmerAnalysis, 1
		if _, err := Assemble(reads, cfg); !errors.Is(err, ErrFaultInjected) {
			t.Fatalf("P=%d: the kill returned %v", p, err)
		}
		cfg.FailAfterStage, cfg.FailAtIteration = "", 0
		cfg.ResumeFrom = cfg.CheckpointDir
		resumed, err := Assemble(reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if resumed.AlignedReadFrac != want {
			t.Errorf("P=%d: resumed aligned read fraction %v, want %v", p, resumed.AlignedReadFrac, want)
		}
	}
}
