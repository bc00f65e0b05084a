package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(10) // 1..10
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.25, 3}, {0.50, 5}, {0.75, 8}, {0.90, 9}, {1.0, 10}, {0.01, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: got %g, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample must give NaN, not a made-up number")
	}
}

func TestSummarizeQuartilesAnyOrder(t *testing.T) {
	in := []float64{9, 1, 5, 3, 7, 2, 8, 4, 6, 10}
	d := summarize(in)
	if d.N != 10 || d.Q1 != 3 || d.Q2 != 5 || d.Q3 != 8 || d.P90 != 9 {
		t.Errorf("summarize = %+v", d)
	}
	if in[0] != 9 {
		t.Error("summarize must not reorder its input")
	}
	if median(in) != 5 {
		t.Errorf("median = %g, want 5", median(in))
	}
}

// The reporting rule: quote the highest percentile that still has at least
// ten samples beyond it.
func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{{100, 0.90, 10}, {99, 0.90, 9}, {1000, 0.99, 10}, {40, 0.75, 10}, {31, 0.75, 7}, {0, 0.9, 0}} {
		if got := samplesBeyond(c.n, c.q); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", c.n, c.q, got, c.beyond)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 0.999}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0}, {0, 0}} {
		if got := highestBackedTail(c.n); got != c.want {
			t.Errorf("highestBackedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if !summarize(seq(100)).P90IsBacked || summarize(seq(99)).P90IsBacked {
		t.Error("p90 is backed by 100 samples and not by 99")
	}
}

func TestBoundComparison(t *testing.T) {
	within := func(better string, base, cand, bound float64) bool {
		return worsening(better, base, cand) <= bound
	}
	// Lower is better: +8% is inside a 10% bound, +12% is not, any
	// improvement is.
	if !within("lower", 100, 108, 0.10) || within("lower", 100, 112, 0.10) || !within("lower", 100, 50, 0.10) {
		t.Error("lower-is-better bound comparison is wrong")
	}
	// Higher is better: the direction flips.
	if !within("higher", 100, 92, 0.10) || within("higher", 100, 88, 0.10) || !within("higher", 100, 150, 0.10) {
		t.Error("higher-is-better bound comparison is wrong")
	}
	if w := worsening("higher", 200, 150); math.Abs(w-0.25) > 1e-12 {
		t.Errorf("worsening(higher, 200 -> 150) = %g, want 0.25", w)
	}
	// A bound of 0 tolerates no rise at all.
	if within("lower", 0, 0.01, 0) || !within("lower", 0, 0, 0) {
		t.Error("zero baseline: any rise is a regression, none is not")
	}
	// A/A is symmetric: neither run is the baseline.
	if a, b := aaDiff("lower", 100, 110), aaDiff("lower", 110, 100); a != b || math.Abs(a-0.10) > 1e-12 {
		t.Errorf("aaDiff = %g / %g, want 0.10 both ways", a, b)
	}
	if d := aaDiff("higher", 100, 80); math.Abs(d-0.20) > 1e-12 {
		t.Errorf("aaDiff(higher, 100, 80) = %g, want 0.20", d)
	}
}
