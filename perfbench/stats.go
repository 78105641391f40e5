package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile
// for it to mean anything: with fewer, the "p99" is one or two outliers.
const minBeyond = 10

// tail is a reported high percentile with the evidence behind it.
type tail struct {
	P     float64 // the percentile reported, at most the one asked for
	Value float64
	N     int // sample count
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// tailPercentile reports the highest percentile, capped at maxP, that
// leaves at least minBeyond samples strictly above its rank, together with
// the sample count. ok is false when there are too few samples for any.
func tailPercentile(xs []float64, maxP float64) (t tail, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return tail{N: n}, false
	}
	// Samples beyond the nearest rank ceil(p·n/100) number n-rank, so
	// n-rank >= minBeyond holds for every p <= 100·(n-minBeyond)/n.
	p := math.Min(maxP, 100*float64(n-minBeyond)/float64(n))
	for int(math.Ceil(p/100*float64(n))) > n-minBeyond {
		// Guard the float rounding at the boundary.
		p = math.Nextafter(p, 0)
	}
	s := sortedCopy(xs)
	return tail{P: p, Value: percentile(s, p), N: n}, true
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
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

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
