package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs and how
// many samples lie strictly above it. A percentile is only worth reporting
// when enough samples lie beyond it, so every caller prints both.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	v = s[rank]
	beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, beyond
}

// median is percentile(xs, 0.5) without the tail count.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
