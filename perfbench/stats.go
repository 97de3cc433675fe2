package main

import (
	"math"
	"sort"
)

// minBeyond is the sample-count rule for tails: a percentile is
// reported only when at least this many samples lie beyond it.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// beyond counts the samples of an n-sample set that lie strictly above
// its q-quantile rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tail is a percentile with the sample count behind it.
type tail struct {
	Value  float64
	N      int // samples in the set
	Beyond int // samples beyond the percentile
}

// percentile returns the q-quantile of xs and whether it may be
// reported under the minBeyond rule.
func percentile(xs []float64, q float64) (tail, bool) {
	t := tail{Value: quantile(xs, q), N: len(xs), Beyond: beyond(len(xs), q)}
	return t, len(xs) > 0 && (q <= 0.5 || t.Beyond >= minBeyond)
}

// highestTail returns the highest of the candidate quantiles that the
// minBeyond rule allows for n samples, or 0 when none does.
func highestTail(n int, candidates ...float64) float64 {
	best := 0.0
	for _, q := range candidates {
		if beyond(n, q) >= minBeyond && q > best {
			best = q
		}
	}
	return best
}

// quartileSpread is (Q3−Q1)/median with the quartiles computed the way
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so the benchmark reports the same spread its
// steadiness check uses.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		ld := len(s)
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
