package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above a reported tail percentile:
// a percentile with fewer samples beyond it is not a measurement.
const tailBeyond = 10

// median returns the median of xs (0 for none), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p95 returns the nearest-rank 95th percentile of xs. ok is false when
// fewer than tailBeyond samples would lie above it.
func p95(xs []float64) (v float64, ok bool) {
	if len(xs) < 20*tailBeyond {
		return 0, false
	}
	s := sorted(xs)
	return s[int(math.Ceil(0.95*float64(len(s))))-1], true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
