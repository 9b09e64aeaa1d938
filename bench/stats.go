package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the two nearest order statistics. It works on exact samples: the
// program's own metrics.Snapshot.Quantile answers with the midpoint of
// a 12.5 %-wide bucket, which is too coarse to gate on (README, noise
// finding 1). xs must be sorted; an empty sample yields NaN so that a
// missing measurement can never pass for a number.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the
// self-check computes the same spread as whoever re-runs the benchmark
// with that tool.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
