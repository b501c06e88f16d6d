package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported tail
// percentile. Fewer than that and the tail is one or two unlucky
// samples, so the run fails instead of reporting a number.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p (0..100)
// among n samples. The small epsilon keeps 95% of 200 at rank 190 even
// though 0.95*200 is not exact in binary floating point.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(1, min(r, n))
}

// percentile returns the nearest-rank p-th percentile of samples and
// the sample count. It fails when fewer than minBeyond samples lie above
// that rank. samples is not modified.
func percentile(samples []float64, p float64) (float64, int, error) {
	n := len(samples)
	if n == 0 {
		return 0, 0, fmt.Errorf("p%g of no samples", p)
	}
	r := rank(p, n)
	if n-r < minBeyond {
		return 0, n, fmt.Errorf("p%g needs %d samples above it, have %d of %d", p, minBeyond, n-r, n)
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return s[r-1], n, nil
}

// highestTail returns the highest percentile that still has minBeyond
// samples above it, or 0 when n is too small for any.
func highestTail(n int) float64 {
	if n <= minBeyond {
		return 0
	}
	return 100 * float64(n-minBeyond) / float64(n)
}

// median returns the median of samples (mean of the middle two for an
// even count), or 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
