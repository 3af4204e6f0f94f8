package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of an ascending sample: the
// smallest value with at least p of the sample at or below it. It returns 0
// for an empty sample.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// median is the 50th percentile with the usual midpoint rule for even
// sample sizes (the rule Python's statistics.median uses, so spreads agree
// with the driver's).
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile by the exclusive method of
// Python's statistics.quantiles(v, n=4), which is what the driver applies to
// ten runs. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// relSpread is the interquartile distance as a share of the median: the
// run-to-run spread every bound is judged against.
func relSpread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worsening is the relative amount by which cur is worse than base, in the
// metric's own direction: positive means worse, negative better. The base
// is always the old value.
func worsening(base, cur float64, higherIsBetter bool) float64 {
	if base == 0 {
		switch {
		case cur == 0:
			return 0
		case higherIsBetter:
			return math.Inf(-1)
		default:
			return math.Inf(1)
		}
	}
	if higherIsBetter {
		return (base - cur) / math.Abs(base)
	}
	return (cur - base) / math.Abs(base)
}

// verdict classifies one comparison. A recorded run-to-run spread wider than
// the bound makes the pair unresolved: the bound cannot be tested. A bound of
// zero means any worsening regresses (fail_ratio).
func verdict(base, cur float64, higherIsBetter bool, bound, spread float64) string {
	w := worsening(base, cur, higherIsBetter)
	switch {
	case bound > 0 && spread > bound:
		return verdictUnresolved
	case w > bound:
		return verdictRegressed
	case w < -bound || (bound == 0 && w < 0):
		return verdictImproved
	default:
		return verdictUnchanged
	}
}
