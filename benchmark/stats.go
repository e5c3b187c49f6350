package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is what every metric's human-readable line carries besides the
// value itself: how many samples stand behind it and how far they spread.
type summary struct {
	N                int
	Median, Min, Max float64
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	return summary{N: len(s), Median: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1]}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics of an ascending
// slice (q in [0,1]).
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is 0 for no samples, so that an unmeasured metric reads 0 rather
// than a NaN that JSON cannot carry.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sorted(xs), 0.5)
}

// tailSamples is how many samples must lie beyond a reported percentile
// before the percentile says anything about the system rather than about
// one slow run of it.
const tailSamples = 10

// percentile returns the p-th percentile (p in (0,100)) of xs, and refuses
// when fewer than tailSamples samples lie beyond it on the far side.
func percentile(xs []float64, p float64) (float64, error) {
	far := 1 - p/100
	if p < 50 {
		far = p / 100
	}
	// The epsilon keeps 0.1*100 from reading as 9.999.
	if beyond := int(math.Floor(far*float64(len(xs)) + 1e-9)); beyond < tailSamples {
		return math.NaN(), fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, len(xs), beyond, tailSamples)
	}
	return quantile(sorted(xs), p/100), nil
}

// iqrSpread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(xs, n=4)
// gives (its default "exclusive" method) — the spread the acceptance rule in
// README.md is written against.
func iqrSpread(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		// Position k*(n+1)/4 on 1-based order statistics; past the ends the
		// last interval is extrapolated, as Python does.
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
