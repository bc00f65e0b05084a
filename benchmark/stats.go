package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending sample: the smallest value with at least q·n samples at or
// below it.  Nearest rank never interpolates, so every reported percentile
// is a time that was actually measured.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), q)]
}

// rankIndex is the nearest-rank position of the q-quantile among n > 0
// ascending samples.
func rankIndex(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

// samplesBeyond counts the samples strictly above the nearest-rank
// q-quantile position of an n-sample set.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// tailCandidates are the tail percentiles the report may quote, highest
// first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// highestBackedTail returns the highest candidate percentile that still has
// at least ten samples beyond it (the choosing-metrics reporting rule), or 0
// when the sample is too small to back any tail at all.
func highestBackedTail(n int) float64 {
	for _, q := range tailCandidates {
		if samplesBeyond(n, q) >= 10 {
			return q
		}
	}
	return 0
}

// summary is the distribution digest printed beside every timing.
type summary struct {
	N           int
	Q1, Q2, Q3  float64
	P90         float64
	TailBacked  float64 // highestBackedTail(N)
	P90IsBacked bool
}

// summarize digests a sample (any order; it is not modified).
func summarize(sample []float64) summary {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.Q1, out.Q2, out.Q3 = percentile(s, 0.25), percentile(s, 0.50), percentile(s, 0.75)
	out.P90 = percentile(s, 0.90)
	out.TailBacked = highestBackedTail(len(s))
	out.P90IsBacked = out.TailBacked >= 0.90
	return out
}

// median returns the nearest-rank median of a sample in any order.
func median(sample []float64) float64 {
	return summarize(sample).Q2
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// worsening returns by what share of the baseline the candidate value got
// worse, in the metric's own direction: positive = worse, negative = better.
func worsening(better string, base, cand float64) float64 {
	if base == 0 {
		if cand == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (cand - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}
