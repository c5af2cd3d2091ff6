package main

import (
	"slices"
)

// percentile returns the nearest-rank q-quantile of v (0 < q ≤ 1), sorting v
// in place. Latencies stay int64 nanoseconds end to end.
func percentile(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	rank := int(q*float64(len(v))+0.999999) - 1
	return v[min(max(rank, 0), len(v)-1)]
}

// median returns the middle of v (the mean of the middle two for an even
// count), sorting v in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	mid := len(v) / 2
	if len(v)%2 == 1 {
		return v[mid]
	}
	return (v[mid-1] + v[mid]) / 2
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the default "exclusive" method), the definition the driver's spread
// check uses. It needs at least two values and sorts v in place.
func quartiles(v []float64) (q1, q2, q3 float64) {
	slices.Sort(v)
	n := len(v)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
