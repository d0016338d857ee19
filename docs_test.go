package mhmgo_test

// Documentation integrity checks, run by the CI docs job: every relative
// markdown link in the project documents must resolve to a file in the
// repository, and every example program must carry a doc comment naming
// what it demonstrates.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the project documents whose links must stay valid.
var docFiles = []string{"README.md", "DESIGN.md", "TUTORIAL.md", "PAPER.md", "ROADMAP.md", "CHANGES.md"}

// mdLink matches inline markdown links [text](target). Reference-style
// links are not used in this repository.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocsLinksResolve verifies that every relative link in the project
// markdown files points at an existing file.
func TestDocsLinksResolve(t *testing.T) {
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v (README/DESIGN/TUTORIAL/PAPER must exist)", doc, err)
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external links are not checked offline
			}
			// Strip an in-file anchor; a bare anchor refers to this file.
			if i := strings.Index(target, "#"); i >= 0 {
				target = target[:i]
				if target == "" {
					continue
				}
			}
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("%s: broken relative link %q", doc, m[1])
			}
		}
	}
}

// TestDocsRequiredCrossLinks pins the documentation topology: the README
// must lead readers to the tutorial and the paper map, and the tutorial
// must point back into the design notes.
func TestDocsRequiredCrossLinks(t *testing.T) {
	requirements := map[string][]string{
		"README.md":   {"TUTORIAL.md", "DESIGN.md", "PAPER.md"},
		"TUTORIAL.md": {"DESIGN.md", "PAPER.md"},
		"PAPER.md":    {"DESIGN.md", "TUTORIAL.md"},
	}
	for doc, wants := range requirements {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		for _, want := range wants {
			if !strings.Contains(string(data), want) {
				t.Errorf("%s must reference %s", doc, want)
			}
		}
	}
	// The checkpoint/restart documentation must stay present: the design
	// notes own the manifest format and failure-mode table, the tutorial
	// owns the kill-and-resume walkthrough, and the tutorial section points
	// back at the design section.
	sections := map[string][]string{
		"DESIGN.md": {"## 8. Checkpoint/restart and run provenance",
			"MANIFEST.json", "FailAtBarrier", "ErrCorruptShard",
			// The pooled-scheduler documentation: the design notes own the
			// execution-vs-simulation separation and the O(P) collective
			// rules.
			"### Pooled scheduler", "Config.Workers", "bit-identical",
			// The packed-kernel documentation: the design notes own the
			// representation, the word-at-a-time tricks and the
			// bit-identity rule.
			"## 9. Packed 2-bit sequences and word-at-a-time kernels",
			"seq.Packed", "MismatchCount", "FuzzPackedRoundTrip",
			// ... and local assembly's mer index: one seed-bucketed index for
			// every mer size, case-exact window compares, and what stays
			// uncharged.
			"### Local assembly's mer index", "case bit",
			"TestMerIndexMatchesReference", "FuzzExtendContig", "mer_walk",
			// The serving-layer documentation: the design notes own the
			// admission policy, the lifecycle state machine and the
			// cancellation/abort wiring.
			"## 10. Assembly as a service: admission control and the job lifecycle",
			"head-of-line", "Retry-After", "AbortOnCancel",
			"TestServeConcurrentJobsRace", "FuzzJobSpecDecode",
			// The co-assembly documentation: the design notes own the
			// sample-vs-library distinction, the shorthand-equivalence
			// contract, and why abundance is recovered from localization
			// counts.
			"## 11. Multi-sample co-assembly",
			"SampleID", "TestSingleSampleShorthandEquivalence",
			"MinKmerCount", "AbundanceReport", "ErrInputMismatch",
			"TestCoassemblyRecoversLowAbundance", "FuzzSampleConfigNormalize"},
		"TUTORIAL.md": {"## 6. Surviving a mid-run kill",
			"-fail-after-stage", "manifest head", "DESIGN.md) §8",
			// The tutorial owns the walkthrough of the one benchmark — its
			// end-to-end and per-layer tables, traces and compare mode —
			// and the practical guidance on -workers and the pprof flags.
			"go run ./benchmark", "BENCHMARK.json", "-trace", "-compare",
			"-workers", "-cpuprofile", "-memprofile",
			// The tutorial owns the serving walkthrough: submit, stream,
			// fetch, and the load workload.
			"## 8. Serving assemblies", "mhmserve", "/v1/jobs",
			"DESIGN.md) §10", "serve_2t",
			// The tutorial owns the co-assembly walkthrough: simulate the
			// time series, co-assemble the union, recover the abundances.
			"## 9. Multi-sample co-assembly", "-samples", "-sample-drift",
			"-sample-reads", "DESIGN.md) §11", "examples/coassembly"},
		// The README leads readers to the one benchmark and its contract.
		"README.md": {"go run ./benchmark", "BENCHMARK.json"},
	}
	for doc, wants := range sections {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		for _, want := range wants {
			if !strings.Contains(string(data), want) {
				t.Errorf("%s must keep the checkpoint/restart documentation (missing %q)", doc, want)
			}
		}
	}
}

// TestDocsOneBenchmarkSystem guards against a second measurement system growing
// back beside BENCHMARK.json + benchmark/: no BENCH_*.json snapshot may sit in
// the repository root (CI's `git diff --exit-code` after the benchmark bitrot
// smoke catches a benchmark that writes into any tracked file).
func TestDocsOneBenchmarkSystem(t *testing.T) {
	stale, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 0 {
		t.Errorf("%v: benchmark numbers belong to BENCHMARK.json metrics or test assertions, not to snapshot files", stale)
	}
}

// TestExamplesHaveDocComments verifies every example program opens with a
// doc comment naming what it demonstrates.
func TestExamplesHaveDocComments(t *testing.T) {
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, path := range mains {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		if len(lines) == 0 || !strings.HasPrefix(lines[0], "// ") {
			t.Errorf("%s must open with a doc comment naming what it demonstrates", path)
			continue
		}
		// The comment must be a doc comment: contiguous with `package main`.
		pkgLine := -1
		for i, l := range lines {
			if strings.HasPrefix(l, "package ") {
				pkgLine = i
				break
			}
		}
		if pkgLine < 1 {
			t.Errorf("%s: no package clause found", path)
			continue
		}
		for i := 0; i < pkgLine; i++ {
			if strings.TrimSpace(lines[i]) == "" || !strings.HasPrefix(lines[i], "//") {
				t.Errorf("%s: the opening comment is not a doc comment (blank or non-comment line %d before the package clause)", path, i+1)
				break
			}
		}
	}
}
