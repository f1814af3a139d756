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

// median returns the middle of xs (the mean of the middle two for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank returns the 1-based nearest-rank position of percentile p among
// n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(r, 1)
}

// tailPercentiles are the candidates highPercentile chooses from.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// highPercentile returns the highest candidate percentile that has at
// least ten samples beyond it, with its nearest-rank value. ok is false
// when even the median has fewer than ten samples beyond it.
func highPercentile(xs []float64) (p, v float64, ok bool) {
	s := sorted(xs)
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		p := tailPercentiles[i]
		r := rank(p, len(s))
		if len(s)-r >= 10 {
			return p, s[r-1], true
		}
	}
	return 0, 0, false
}
