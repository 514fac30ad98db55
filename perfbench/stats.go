package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0 <= p <= 1) of v by linear
// interpolation between closest ranks, the default method of R and NumPy.
// It is 0 for an empty sample; v is not modified.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method), so
// spreads printed here match the ones an acceptance check computes from
// the same values. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64, ok bool) {
	if len(v) < 2 {
		return 0, 0, false
	}
	s := sortedCopy(v)
	at := func(i int) float64 {
		// Python's arithmetic: rank i*(n+1)/4, the pair of neighbours
		// clamped into the sample, so small samples extrapolate.
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), true
}

// spread is the interquartile distance as a share of the median, the
// steadiness figure a metric's bound is judged against.
func spread(v []float64) float64 {
	q1, q3, ok := quartiles(v)
	m := median(v)
	if !ok || m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
