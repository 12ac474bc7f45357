package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), as Python's statistics.median does.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match the ones any
// consumer of the printed numbers computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, or NaN when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// timerCost is the median cost of one time.Now/time.Since pair, which
// per-call timings of sub-microsecond operations subtract.
func timerCost() time.Duration {
	const n = 1001
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(xs))
}

// perCall converts a summed per-call timing into ns per call, net of the
// timer's own cost and never below zero.
func perCall(total time.Duration, calls int, overhead time.Duration) float64 {
	if calls == 0 {
		return 0
	}
	ns := float64(total)/float64(calls) - float64(overhead)
	return math.Max(ns, 0)
}
