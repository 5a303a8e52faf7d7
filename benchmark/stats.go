package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(asc)))) - 1
	return asc[min(max(i, 0), len(asc)-1)]
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns
// (the default "exclusive" method), so the spread printed here is the one
// the acceptance rule computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		v := math.NaN()
		if m == 1 {
			v = s[0]
		}
		return v, v, v
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrPct is the distance between the first and third quartile as a
// percentage of the median.
func iqrPct(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	return 100 * (q3 - q1) / median(xs)
}

// sliceSpread computes stat on consecutive fifths of xs (which are in
// arrival order) and returns the IQR of those five values as a percentage
// of their median: the within-run drift of a latency metric.
func sliceSpread(xs []float64, stat func(asc []float64) float64) float64 {
	const parts = 5
	if len(xs) < 2*parts {
		return 0
	}
	vals := make([]float64, parts)
	for i := range vals {
		vals[i] = stat(sorted(xs[i*len(xs)/parts : (i+1)*len(xs)/parts]))
	}
	return iqrPct(vals)
}
