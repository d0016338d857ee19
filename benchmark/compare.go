package main

import (
	"fmt"
	"io"
	"math"
)

// Compare mode reads two result files (-out) and reports, per workload and
// metric, both medians, their ratio with A as the base, and a verdict:
//
//	ok          B's median is no worse than A's by more than the bound
//	worse       it is
//	unresolved  the run-to-run spread on either side is wider than the bound,
//	            so the medians cannot show a difference of that size
//	same        an exact metric repeated bit for bit on every shared seed
//	changed     an exact metric differs on a shared seed (an end-to-end one
//	            that is also past its bound reads worse instead)
//	-           a per-layer timing: no bound, the ratio is the information

// sample is one run's value of one metric.
type sample struct {
	seed int64
	v    value
}

// verdict is the judgement of one metric on one workload.
type verdict struct {
	medA, medB float64
	spread     float64 // the wider of the two sides; NaN with fewer than two runs a side
	word       string
}

func judge(d metricSpec, a, b []sample) verdict {
	vals := func(s []sample) (v []float64, exact bool) {
		exact = len(s) > 0
		for _, x := range s {
			v = append(v, x.v.V)
			exact = exact && x.v.Exact
		}
		return v, exact
	}
	va, exactA := vals(a)
	vb, exactB := vals(b)
	out := verdict{medA: median(va), medB: median(vb), spread: math.NaN()}
	for _, s := range []float64{spread(va), spread(vb)} {
		if !math.IsNaN(s) && (math.IsNaN(out.spread) || s > out.spread) {
			out.spread = s
		}
	}
	// How much worse B is, as a share of A, in the metric's own direction.
	worseBy := ratio(out.medB-out.medA, math.Abs(out.medA))
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	pastBound := d.Bound != nil && worseBy > *d.Bound

	if exactA && exactB {
		out.word = "same"
		for _, x := range a {
			for _, y := range b {
				if x.seed == y.seed && math.Float64bits(x.v.V) != math.Float64bits(y.v.V) {
					out.word = "changed"
				}
			}
		}
		if out.word == "changed" && pastBound {
			out.word = "worse"
		}
		return out
	}
	switch {
	case d.Bound == nil:
		out.word = "-"
	case out.spread > *d.Bound:
		out.word = "unresolved"
	case pastBound:
		out.word = "worse"
	default:
		out.word = "ok"
	}
	return out
}

// compareFiles prints the comparison of two result files and reports
// whether any metric came out worse.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (anyWorse bool, err error) {
	recsA, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	collect := func(recs []record, workload string, traced bool, metric string) []sample {
		var s []sample
		for _, r := range recs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Traced == traced {
				s = append(s, sample{r.Seed, v})
			}
		}
		return s
	}
	fmt.Fprintf(w, "A = %s (%d runs)   B = %s (%d runs)   ratio = B/A\n", pathA, len(recsA), pathB, len(recsB))
	fmt.Fprintf(w, "%-18s %-34s %-8s %14s %14s %8s %8s  %s\n", "workload", "metric", "unit", "A median", "B median", "B/A", "spread", "verdict")
	for _, ws := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			for _, d := range spec.declared(traced) {
				a, b := collect(recsA, ws.Name, traced, d.Name), collect(recsB, ws.Name, traced, d.Name)
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				v := judge(d, a, b)
				anyWorse = anyWorse || v.word == "worse"
				fmt.Fprintf(w, "%-18s %-34s %-8s %14.6g %14.6g %8.4f %8.4f  %s\n",
					ws.Name, d.Name, d.Unit, v.medA, v.medB, ratio(v.medB, v.medA), v.spread, v.word)
			}
		}
	}
	return anyWorse, nil
}
