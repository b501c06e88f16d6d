package main

import (
	"math/rand"
	"slices"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// Shuffled, so the helper has to sort a copy.
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{200, 95, 190},
		{200, 50, 100},
		{1000, 99, 990},
		{20, 50, 10},
		{21, 50, 11},
	} {
		xs := seq(c.n)
		orig := slices.Clone(xs)
		got, n, err := percentile(xs, c.p)
		if err != nil {
			t.Fatalf("p%g of %d: %v", c.p, c.n, err)
		}
		if got != c.want || n != c.n {
			t.Errorf("p%g of 1..%d = %g (n %d), want %g (n %d)", c.p, c.n, got, n, c.want, c.n)
		}
		if !slices.Equal(xs, orig) {
			t.Errorf("p%g of %d reordered its input", c.p, c.n)
		}
	}
}

// A tail with fewer than ten samples beyond it must fail, not report.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{
		{199, 95},
		{999, 99},
		{19, 50},
		{0, 50},
	} {
		if v, _, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%g of %d samples = %g, want an error", c.p, c.n, v)
		}
	}
}

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{200, 95}, {1000, 99}, {20, 50}, {10, 0}, {0, 0}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 {
			if _, _, err := percentile(seq(c.n), c.want); err != nil {
				t.Errorf("highestTail(%d) = %g is not reportable: %v", c.n, c.want, err)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}
