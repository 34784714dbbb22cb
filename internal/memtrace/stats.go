package memtrace

import "math"

// ChiSquareUniform returns the chi-squared statistic of counts against the
// uniform distribution over len(counts) bins. Used by the ORAM security
// tests: the leaves fetched by a tree ORAM must be indistinguishable from
// uniform regardless of the logical access sequence.
func ChiSquareUniform(counts []int) float64 {
	if len(counts) == 0 {
		return 0
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	expected := float64(total) / float64(len(counts))
	var chi float64
	for _, c := range counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	return chi
}

// ChiSquareCritical999 returns an approximate 99.9% critical value for the
// chi-squared distribution with df degrees of freedom, using the
// Wilson–Hilferty cube-root normal approximation. Tests comparing observed
// ORAM leaf histograms to uniform reject only beyond this value, keeping
// the randomized tests stable across seeds.
func ChiSquareCritical999(df int) float64 {
	if df <= 0 {
		return 0
	}
	const z = 3.0902 // Φ⁻¹(0.999)
	d := float64(df)
	t := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * t * t * t
}

// MutualInformationBits estimates the mutual information (in bits) between
// a secret value and the observed block of its first data access, given
// per-secret access histograms: leak[s] is the histogram of observed blocks
// when the secret is s. Secrets are assumed uniform. A perfectly leaky
// lookup table yields log2(#secrets) bits; a secure scheme yields ~0.
func MutualInformationBits(leak []map[int64]int) float64 {
	n := len(leak)
	if n == 0 {
		return 0
	}
	pSecret := 1.0 / float64(n)
	// Marginal over observations.
	marginal := map[int64]float64{}
	perSecret := make([]map[int64]float64, n)
	for s, h := range leak {
		total := 0
		for _, c := range h {
			total += c
		}
		dist := map[int64]float64{}
		if total > 0 {
			for k, c := range h {
				p := float64(c) / float64(total)
				dist[k] = p
				marginal[k] += pSecret * p
			}
		}
		perSecret[s] = dist
	}
	var mi float64
	for s := 0; s < n; s++ {
		for k, p := range perSecret[s] {
			if p <= 0 || marginal[k] <= 0 {
				continue
			}
			mi += pSecret * p * math.Log2(p/marginal[k])
		}
	}
	if mi < 0 { // numeric noise
		mi = 0
	}
	return mi
}
