package main

import (
	"math"
	"sort"
)

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an even
// count); 0 for no values.
func median(values []float64) float64 {
	s := sorted(values)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the cut points Python's statistics.quantiles(values, n=4)
// gives (the exclusive method), which is how the benchmark's acceptance check
// measures run-to-run spread. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sorted(values)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share of
// the median; NaN when fewer than two values (or a zero median) leave it
// undefined.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return math.NaN()
	}
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return math.NaN()
	}
	return math.Abs((q3 - q1) / q2)
}

// tailPercentiles are the candidates for "the highest percentile that has at
// least ten samples beyond it".
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// highestPercentile picks that percentile for n samples; ok is false when
// even the median has fewer than ten samples beyond it.
func highestPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if float64(n)*(1-c/100) >= 10-1e-9 {
			p, ok = c, true
		}
	}
	return p, ok
}

// percentile is the nearest-rank percentile of values.
func percentile(values []float64, p float64) float64 {
	s := sorted(values)
	if len(s) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var t float64
	for _, v := range values {
		t += v
	}
	return t / float64(len(values))
}
