package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: quantile must sort a copy
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{100, 0.5, 50, true},
		{100, 0.9, 90, true}, // exactly 10 samples beyond
		{99, 0.9, 90, false}, // 9 beyond: p90 not supported
		{101, 0.9, 91, true}, // rank ceil(90.9) = 91
		{20, 0.5, 10, true},  // 10 beyond the median
		{19, 0.5, 10, false}, // 9 beyond
		{1, 0.5, 1, false},
		{1000, 0.99, 990, true},
	} {
		xs := seq(c.n)
		got, ok := quantile(xs, c.q)
		if got != c.want || ok != c.wantOK {
			t.Errorf("quantile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.wantOK)
		}
		if xs[0] != float64(c.n) {
			t.Fatalf("quantile reordered its input")
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Errorf("quantile of no samples reported ok")
	}
}

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeOpSampleCounts(t *testing.T) {
	s := summarizeOp(seq(99), 100, 1)
	if s.Samples != 99 || s.Attempts != 100 || s.Failed != 1 {
		t.Fatalf("counts = %+v", s)
	}
	if s.P90OK || s.Tail != 0.75 {
		t.Errorf("99 samples: p90_ok=%v tail=%v, want false, 0.75", s.P90OK, s.Tail)
	}
	if s.MinMs != 1 || s.MaxMs != 99 || s.MeanMs != 50 {
		t.Errorf("min/max/mean = %v/%v/%v", s.MinMs, s.MaxMs, s.MeanMs)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if g := geomean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Errorf("geomean(1, 100) = %v", g)
	}
	// A 21% rise in one of two values moves the geometric mean by 10%.
	if r := geomean([]float64{2, 1.21 * 8}) / geomean([]float64{2, 8}); math.Abs(r-1.1) > 1e-9 {
		t.Errorf("geomean ratio = %v, want 1.1", r)
	}
}
