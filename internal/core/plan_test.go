package core

import (
	"sync"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/workload"
)

func TestMakePlanMatchesSort(t *testing.T) {
	// Applying the plan manually must reproduce Sort's partitioning.
	p, perRank := 7, 400
	w, _ := comm.NewWorld(p, nil)
	outs := make([][]uint64, p)
	var mu sync.Mutex
	err := w.Run(func(c *comm.Comm) error {
		spec := workload.Spec{Dist: workload.Zipf, Seed: 91, Span: 1e9}
		local, _ := spec.Rank(c.Rank(), perRank)
		plan, err := MakePlan(c, local, u64, Config{})
		if err != nil {
			return err
		}
		if plan.Iterations <= 0 {
			t.Errorf("rank %d: no iterations recorded", c.Rank())
		}
		if len(plan.Cuts) != p+1 || plan.Cuts[0] != 0 || plan.Cuts[p] != len(local) {
			t.Errorf("rank %d: malformed cuts %v", c.Rank(), plan.Cuts)
		}
		// Perm must be a valid permutation producing Sorted.
		seen := make([]bool, len(local))
		for i, j := range plan.Perm {
			if seen[j] {
				t.Errorf("rank %d: perm reuses index %d", c.Rank(), j)
			}
			seen[j] = true
			if plan.Sorted[i] != local[j] {
				t.Errorf("rank %d: Sorted[%d] != local[Perm[%d]]", c.Rank(), i, i)
			}
		}
		// Execute the plan with a plain alltoallv.
		recv, _ := comm.AlltoallvWith(c, plan.Sorted, plan.SendCounts, comm.AlltoallPairwise, 1)
		mu.Lock()
		outs[c.Rank()] = recv
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Perfect partitioning: every rank receives exactly perRank keys, and
	// ranges are ordered across ranks.
	var prevMax uint64
	for r, out := range outs {
		if len(out) != perRank {
			t.Fatalf("rank %d received %d keys", r, len(out))
		}
		var mn, mx uint64 = ^uint64(0), 0
		for _, v := range out {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if r > 0 && mn < prevMax {
			t.Fatalf("rank %d range overlaps predecessor: %d < %d", r, mn, prevMax)
		}
		prevMax = mx
	}
}

func TestPlanDestination(t *testing.T) {
	pl := Plan[uint64]{Cuts: []int{0, 3, 3, 7, 10}}
	want := []int{0, 0, 0, 2, 2, 2, 2, 3, 3, 3}
	for i, d := range want {
		if got := pl.Destination(i); got != d {
			t.Errorf("Destination(%d) = %d, want %d", i, got, d)
		}
	}
}

func TestMakePlanInvalidConfig(t *testing.T) {
	w, _ := comm.NewWorld(1, nil)
	err := w.Run(func(c *comm.Comm) error {
		_, err := MakePlan(c, []uint64{1}, u64, Config{Epsilon: -2})
		if err == nil {
			t.Error("expected config error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
