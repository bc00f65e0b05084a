package bench

import (
	"fmt"
	"slices"
	"testing"

	"dhsort/internal/core"
	"dhsort/internal/workload"
)

// TestSampleSortTable runs Sorters["samplesort"] through Run over rank
// counts, empty ranks and the duplicate adversaries, resident and spilled,
// with and without the (key, rank, index) lift: every output is the sorted
// permutation of its input, and the spilled output is the resident one.
func TestSampleSortTable(t *testing.T) {
	const perRank = 500
	for _, p := range []int{1, 6, 16} {
		for _, dist := range []workload.Distribution{workload.AllEqual, workload.Zipf, workload.DuplicateFlood} {
			for _, sparse := range []int{0, 5} { // 5: ranks 4, 9, 14 hold nothing
				for _, unique := range []bool{false, true} {
					spec := workload.Spec{Dist: dist, Seed: uint64(p), Span: 1e9, Sparse: sparse}
					t.Run(fmt.Sprintf("p=%d/%s/sparse=%d/unique=%v", p, dist, sparse, unique), func(t *testing.T) {
						trial := Trial{P: p, N: p * perRank, Spec: spec}
						var outs [2][][]uint64
						for i, budget := range []int64{0, 1024} {
							cfg := core.Config{Threads: 1, ForceUnique: unique, MemBudget: budget}
							res, err := Run(Sorters["samplesort"], cfg, trial)
							if err != nil {
								t.Fatalf("mem budget %d: %v", budget, err)
							}
							outs[i] = res.Outs
						}
						checkSortedPermutation(t, trial, outs[0])
						if !slices.EqualFunc(outs[0], outs[1], slices.Equal[[]uint64]) {
							t.Error("the spilled output differs from the resident one")
						}
					})
				}
			}
		}
	}
}

// A value holding half the input splits across ranks without the lift:
// the splitters that sample it all equal it, and Algorithm 4's cuts clamp
// each target into its run instead of sending the run to one rank.
func TestSampleSortSplitsFloodWithoutLift(t *testing.T) {
	spec := workload.Spec{Dist: workload.DuplicateFlood, Seed: 11, Span: 1e9, FloodFrac: 0.5}
	res, err := Run(Sorters["samplesort"], core.Config{Threads: 1}, Trial{P: 8, N: 8000, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Summary.OutputImbalance; got > 1.5 {
		t.Errorf("a 0.5 flood at P = 8 ends at imbalance %.2f, want <= 1.5", got)
	}
}

// checkSortedPermutation fails t unless outs, concatenated in rank order, is
// the sorted multiset of trial's inputs.
func checkSortedPermutation(t *testing.T, trial Trial, outs [][]uint64) {
	t.Helper()
	var want, got []uint64
	for r := range trial.P {
		in, err := trial.Spec.Rank(r, workload.LocalSize(trial.N, trial.P, r))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, in...)
		got = append(got, outs[r]...)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("the output is not the sorted permutation of the input (%d keys in, %d out)", len(want), len(got))
	}
}
