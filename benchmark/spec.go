package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// specFile is the benchmark's contract, read at run time so that workload
// rationales, units, directions and bounds have exactly one home.
const specFile = "BENCHMARK.json"

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec is one declared metric. Bound is the share of the baseline's
// median by which an end-to-end metric may worsen; per-layer metrics carry
// none.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark contract: %w (run from the repository root)", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// validate enforces the limits the benchmark driver refuses a file for.
func (s *benchSpec) validate() error {
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	use := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use("workload", w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %q: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, endToEnd := range []bool{true, false} {
		for _, m := range s.declared(!endToEnd) {
			if err := use("metric", m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %q: bad unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %q: better must be lower or higher", m.Name)
			}
			switch {
			case endToEnd && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				return fmt.Errorf("end-to-end metric %q needs a bound in (0, 0.25]", m.Name)
			case !endToEnd && m.Bound != nil:
				return fmt.Errorf("per-layer metric %q must not carry a bound", m.Name)
			}
			if endToEnd && m.Name == "setup_s" {
				hasSetup = m.Unit == "s" && m.Better == "lower"
			}
		}
	}
	if !hasSetup {
		return fmt.Errorf("end_to_end must hold setup_s with unit s, better lower")
	}
	return nil
}

func (s *benchSpec) workload(name string) (workloadSpec, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// declared returns the metrics one run must print: the end-to-end set with
// tracing off, the per-layer set with tracing on.
func (s *benchSpec) declared(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// checkSet reports how the names a run produced differ from the declared
// set; a benchmark whose output drifts from its contract is a failed run.
func checkSet(declared []metricSpec, got metrics) error {
	want := map[string]bool{}
	var missing, extra []string
	for _, m := range declared {
		want[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	for name := range got {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) == 0 {
		return nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Errorf("metric set differs from %s: missing %v, undeclared %v", specFile, missing, extra)
}
