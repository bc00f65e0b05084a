package samplesort

import (
	"testing"

	"dhsort/internal/core"
	"dhsort/internal/workload"
)

// imbalance returns max(|out_r|) · P / N for the output partition.
func imbalance(outs [][]uint64) float64 {
	total, max := 0, 0
	for _, o := range outs {
		total += len(o)
		if len(o) > max {
			max = len(o)
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(len(outs)) / float64(total)
}

// A duplicate flood holding half the input splits across ranks with the
// (key, rank, index) lift: every sampled splitter cuts inside the run.
// Without the lift Algorithm 4's cut refinement splits it too
// (internal/bench's TestSampleSortSplitsFloodWithoutLift pins that).
func TestTieBreakSplitsDuplicateFlood(t *testing.T) {
	const p, perRank = 8, 1000
	spec := workload.Spec{Dist: workload.DuplicateFlood, Seed: 11, Span: 1e9, FloodFrac: 0.5}
	ins, tied := runIt(t, p, perRank, spec, core.Config{Threads: 1, ForceUnique: true}, nil)
	checkSortedPermutation(t, ins, tied)
	// Regular sampling's bound is probabilistic; 1.5 is far below the ≈4.0
	// of one rank holding the whole flood, and stable for this seed.
	if got := imbalance(tied); got > 1.5 {
		t.Fatalf("tie-breaking left imbalance %.2f", got)
	}
}

// Tie-breaking must not disturb correctness on the other adversaries.
func TestTieBreakStaysCorrect(t *testing.T) {
	for _, d := range []workload.Distribution{workload.AllEqual, workload.Zipf, workload.SortedOutliers} {
		spec := workload.Spec{Dist: d, Seed: 7, Span: 1e9}
		ins, outs := runIt(t, 6, 400, spec, core.Config{Threads: 1, ForceUnique: true}, nil)
		checkSortedPermutation(t, ins, outs)
	}
}
