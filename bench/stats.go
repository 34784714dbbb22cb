package main

import (
	"math"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a reported percentile:
// with fewer, the "percentile" is one or two outliers, not a statistic.
const tailSamples = 10

// percentile picks the q-quantile (nearest rank) of an ascending sample. A
// tail percentile is clamped so that at least tailSamples samples lie
// beyond the pick, and never below the median: a p99.9 asked of 3000
// samples reads as the highest percentile the sample supports (here
// p99.67) instead of as its third-largest value.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := func(q float64) int { return max(int(math.Ceil(q*float64(n)))-1, 0) }
	return sorted[min(rank(q), max(n-1-tailSamples, rank(0.5)))]
}

// quiet reduces the repetitions of one measurement (a run's windows or
// blocks, a run's set-ups) to the value at their quiet decile: with a tenth
// of the repetitions on the better side of it. The input is left untouched.
func quiet(values []float64, higherIsBetter bool) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	k := int(quietShare * float64(n))
	if higherIsBetter {
		return s[n-1-k]
	}
	return s[k]
}

// median of an unsorted sample; the input is left untouched.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortedBy extracts one number per sample and sorts them ascending.
func sortedBy(items []sample, f func(*sample) float64) []float64 {
	out := make([]float64, len(items))
	for i := range items {
		out[i] = f(&items[i])
	}
	sort.Float64s(out)
	return out
}
