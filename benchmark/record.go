package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// value is one measured metric. Exact marks numbers the program computes
// deterministically from its input (simulated clock, counters, quality):
// they must repeat bit for bit on the same seed, so compare mode holds them
// to equality instead of a noise bound.
type value struct {
	V     float64 `json:"value"`
	Exact bool    `json:"exact,omitempty"`
}

type metrics map[string]value

func (m metrics) timed(name string, v float64) { m[name] = value{V: v} }
func (m metrics) exact(name string, v float64) { m[name] = value{V: v, Exact: true} }

// zero fills every declared metric the run did not produce, so each workload
// prints the full set; a metric that does not apply (checkpoint.* without
// checkpoints, serve.* without a server) reads 0.
func (m metrics) zero(declared []metricSpec, applies func(name string) bool) {
	for _, d := range declared {
		if _, ok := m[d.Name]; !ok && !applies(d.Name) {
			m.exact(d.Name, 0)
		}
	}
}

// record is one run of one workload: the shared schema every result file
// holds, one JSON object per line, appended run after run.
type record struct {
	Host       string `json:"host"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`

	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   metrics  `json:"metrics"`
}

func newRecord(workload string, seed int64, seconds int, traced bool) *record {
	host, _ := os.Hostname() // a nameless host is still a valid record
	return &record{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: commit(),
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: metrics{},
	}
}

// commit reads the checked-out commit from .git by hand: `go run` stamps no
// VCS information, and the benchmark starts no process that could wander
// outside the checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if data, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(data))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// fail counts one failed operation (an assembly that errored, was refused,
// or whose output failed a check).
func (r *record) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// invalidate marks the whole run incorrect without charging an operation:
// a cross-repetition check failed, or the output drifted from the contract.
func (r *record) invalidate(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// finish settles correctness once every check has run.
func (r *record) finish() {
	r.Correct = r.Attempted > 0 && len(r.Failures) == 0
}

// print writes the human-readable metric lines and, last, the one-line JSON
// result the benchmark driver parses.
func (r *record) print(w io.Writer, spec *benchSpec) {
	for _, d := range spec.declared(r.Traced) {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		note := ""
		if d.Bound != nil {
			note = fmt.Sprintf("  (%s is better, bound %g%%)", d.Better, *d.Bound*100)
		}
		fmt.Fprintf(w, "%-34s %16.6g %-8s%s\n", d.Name, v.V, d.Unit, note)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	type outValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]outValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]outValue{}}
	for _, d := range spec.declared(r.Traced) {
		if v, ok := r.Metrics[d.Name]; ok {
			out.Metrics[d.Name] = outValue{v.V, d.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

// appendTo adds the record to a result file (JSON lines).
func (r *record) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords loads a result file written by appendTo.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}
