package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// test spawns a child assembly.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		if err := childMain(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tiny is a 600-read, 3-rank stand-in for the batch workloads.
var tiny = workload{name: "tiny", genomes: 2, genomeLen: 3000, sigma: 0.3, coverage: 10,
	libs: defaultLib, ranks: 3, ranksPerNode: 3}

func loadRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestStats(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
	if !math.IsNaN(spread([]float64{1})) {
		t.Error("spread of one value must be undefined")
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{{19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true}, {100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true}} {
		if p, ok := highestPercentile(c.n); p != c.p || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v %v, want %v %v", c.n, p, ok, c.p, c.ok)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := percentile(hundred, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v", got) // ten samples lie beyond it
	}
}

func TestSpecValidation(t *testing.T) {
	spec := loadRepoSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for _, w := range workloads {
		if _, ok := spec.workload(w.name); !ok {
			t.Errorf("workload %s is not declared in %s", w.name, specFile)
		}
	}
	bound := 0.1
	metric := func(name string) metricSpec { return metricSpec{Name: name, Unit: "s", Better: "lower"} }
	for what, breakIt := range map[string]func(s *benchSpec){
		"bad metric name": func(s *benchSpec) { s.PerLayer[0].Name = "has space" },
		"bad unit":        func(s *benchSpec) { s.PerLayer[0].Unit = "s (simulated)" },
		"name used twice": func(s *benchSpec) { s.PerLayer[1].Name = s.PerLayer[0].Name },
		"no setup_s":      func(s *benchSpec) { s.EndToEnd[0].Name = "set_up" },
		"bound too wide":  func(s *benchSpec) { b := 0.3; s.EndToEnd[1].Bound = &b },
		"bounded layer":   func(s *benchSpec) { s.PerLayer[0].Bound = &bound },
		"17 end-to-end": func(s *benchSpec) {
			for i := len(s.EndToEnd); i < 17; i++ {
				m := metric(fmt.Sprintf("extra%d", i))
				m.Bound = &bound
				s.EndToEnd = append(s.EndToEnd, m)
			}
		},
		"129 per-layer": func(s *benchSpec) {
			for i := len(s.PerLayer); i < 129; i++ {
				s.PerLayer = append(s.PerLayer, metric(fmt.Sprintf("extra%d", i)))
			}
		},
	} {
		broken := *loadRepoSpec(t)
		breakIt(&broken)
		if broken.validate() == nil {
			t.Errorf("%s: validate accepted it", what)
		}
	}
}

// TestRunPrintsDeclaredSet runs a tiny workload through the real path (child
// processes, traced run, chain, probes) and checks that what a run prints is
// exactly what BENCHMARK.json declares, in both modes.
func TestRunPrintsDeclaredSet(t *testing.T) {
	spec := loadRepoSpec(t)
	outDir = t.TempDir()
	for _, traced := range []bool{false, true} {
		rec := runOne(context.Background(), spec, tiny, 1, 1, traced)
		if !rec.Correct {
			t.Fatalf("traced=%v: run incorrect: %v", traced, rec.Failures)
		}
		if err := checkSet(spec.declared(traced), rec.Metrics); err != nil {
			t.Errorf("traced=%v: %v", traced, err)
		}
		if traced {
			if _, err := os.Stat(outDir + "/trace-tiny.json"); err != nil {
				t.Error(err)
			}
			if rec.Metrics["checkpoint.bytes"].V != 0 || rec.Metrics["localasm.host_s"].V <= 0 {
				t.Errorf("checkpoint.bytes = %v, localasm.host_s = %v", rec.Metrics["checkpoint.bytes"].V, rec.Metrics["localasm.host_s"].V)
			}
		}
	}
	// A metric the contract does not know, or one it knows and the run lacks,
	// is a failed run.
	got := metrics{}
	for _, d := range spec.EndToEnd {
		got.timed(d.Name, 1)
	}
	delete(got, "wall_s")
	got.timed("surprise", 1)
	if err := checkSet(spec.EndToEnd, got); err == nil {
		t.Error("checkSet accepted a drifted metric set")
	}
}

// TestFailedCheckFailsTheRun breaks an expectation on purpose: at 1.5x
// coverage no assembly clears the genome-fraction floor, so every operation
// must count as failed and the command must exit non-zero.
func TestFailedCheckFailsTheRun(t *testing.T) {
	spec := loadRepoSpec(t)
	outDir = t.TempDir()
	starved := tiny
	starved.coverage = 1.5
	rec := runOne(context.Background(), spec, starved, 1, 1, false)
	if rec.Attempted == 0 || rec.Failed != rec.Attempted || rec.Correct {
		t.Fatalf("attempted %d failed %d correct %v, want every operation failed", rec.Attempted, rec.Failed, rec.Correct)
	}
	if exitStatus([]*record{rec}) == 0 {
		t.Error("exit status 0 for an incorrect run")
	}
	good := outcome{fastaSHA: "aa", simS: 0.25, head: "h"}
	if sameOutput(good, good) != nil {
		t.Error("identical outcomes reported as different")
	}
	for _, bad := range []outcome{{fastaSHA: "ab", simS: 0.25, head: "h"}, {fastaSHA: "aa", simS: math.Nextafter(0.25, 1), head: "h"}, {fastaSHA: "aa", simS: 0.25, head: "g"}} {
		if sameOutput(good, bad) == nil {
			t.Errorf("outcome %+v passed the repeatability check", bad)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.10
	lower := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "len_ge_1k", Unit: "bases", Better: "higher", Bound: &bound}
	layer := metricSpec{Name: "dbg.host_s", Unit: "s", Better: "lower"}
	timed := func(vs ...float64) []sample {
		var s []sample
		for i, v := range vs {
			s = append(s, sample{int64(i), value{V: v}})
		}
		return s
	}
	exact := func(vs ...float64) []sample {
		s := timed(vs...)
		for i := range s {
			s[i].v.Exact = true
		}
		return s
	}
	for _, c := range []struct {
		what string
		d    metricSpec
		a, b []sample
		want string
	}{
		{"within the bound", lower, timed(10, 10.1, 9.9, 10), timed(10.5, 10.4, 10.6, 10.5), "ok"},
		{"faster", lower, timed(10, 10.1, 9.9, 10), timed(5, 5.1, 4.9, 5), "ok"},
		{"past the bound", lower, timed(10, 10.1, 9.9, 10), timed(12, 12.1, 11.9, 12), "worse"},
		{"spread wider than the bound", lower, timed(8, 10, 12, 14), timed(12, 12.1, 11.9, 12), "unresolved"},
		{"one run a side", lower, timed(10), timed(12), "worse"},
		{"exact and equal", higher, exact(100, 200), exact(100, 200), "same"},
		{"exact, moved inside the bound", higher, exact(100, 200), exact(99, 200), "changed"},
		{"exact, moved past the bound", higher, exact(100, 200), exact(80, 160), "worse"},
		{"exact, higher is better and it rose", higher, exact(100, 200), exact(150, 300), "changed"},
		{"per-layer timing", layer, timed(1, 1.1), timed(2, 2.1), "-"},
	} {
		if got := judge(c.d, c.a, c.b); got.word != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.what, got.word, c.want, got)
		}
	}
}

// TestChainRepeatsExactly runs the layer chain twice on a ~300-read, 3-rank
// input: every count it reports must repeat, or the exact per-layer metrics
// would not be comparable between commits.
func TestChainRepeatsExactly(t *testing.T) {
	w := tiny
	w.genomeLen, w.coverage = 1600, 9.4 // 2 x 1600 x 9.4 / 100 = 300 reads
	in := makeInput(w, 0, 7)
	if n := len(in.reads); n < 290 || n > 310 {
		t.Fatalf("%d reads, want about 300", n)
	}
	var runs [2]metrics
	for i := range runs {
		chain, err := runChain(nil, 0, w.ranks, w.ranksPerNode, w.libs, in.reads)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = metrics{}
		chain.metrics(runs[i])
	}
	exact := 0
	for name, v := range runs[0] {
		if !v.Exact {
			continue
		}
		exact++
		if got := runs[1][name].V; math.Float64bits(got) != math.Float64bits(v.V) {
			t.Errorf("%s: %v then %v", name, v.V, got)
		}
	}
	if exact < 30 || runs[0]["kmeranalysis.distinct_kmers"].V == 0 || runs[0]["dbg.contigs"].V == 0 {
		t.Errorf("%d exact chain metrics, distinct_kmers %v, contigs %v", exact, runs[0]["kmeranalysis.distinct_kmers"].V, runs[0]["dbg.contigs"].V)
	}
}
