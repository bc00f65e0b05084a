package hss

import (
	"sync"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/fault"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

// TestHSSShrinkRecovery is the hss half of the shrink acceptance criterion:
// P=16, rank 3 dies permanently at the first superstep boundary, Recovery
// "shrink" — the sampled-splitter sort must complete loss-free on the 15
// survivors, globally sorted and multiset-identical to the input.  outs is
// indexed by original world rank (the victim's slot stays nil); shrink is
// order-preserving, so the world-rank order is still the global order.
func TestHSSShrinkRecovery(t *testing.T) {
	const p, perRank = 16, 1024
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 5, Span: 1e9}
	cfg := core.Config{Threads: 1, Recovery: core.RecoveryShrink}
	plan := fault.Plan{Seed: 7, Deaths: []fault.Death{{Rank: 3, Step: core.StepLocalSort}}}

	w, err := comm.NewWorldWithFaults(p, model, plan)
	if err != nil {
		t.Fatal(err)
	}
	ins := make([][]uint64, p)
	outs := make([][]uint64, p)
	effSizes := make([]int, p)
	var mu sync.Mutex
	err = w.Run(func(c *comm.Comm) error {
		local, err := spec.Rank(c.Rank(), perRank)
		if err != nil {
			return err
		}
		mu.Lock()
		ins[c.Rank()] = local
		mu.Unlock()
		out, eff, err := SortResilient(c, local, u64, cfg, 21)
		if err != nil {
			return err
		}
		if !core.IsGloballySorted(eff, out, u64) {
			t.Errorf("rank %d: survivor output not globally sorted", c.Rank())
		}
		mu.Lock()
		outs[c.Rank()] = out
		effSizes[c.Rank()] = eff.Size()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if outs[3] != nil {
		t.Error("the dead rank returned an output")
	}
	for r, n := range effSizes {
		if r == 3 {
			continue
		}
		if n != p-1 {
			t.Errorf("rank %d finished on a communicator of size %d, want %d", r, n, p-1)
		}
	}
	// Adoption changes per-rank sizes, so the partitioning is no longer
	// perfect — but the multiset and the global order must be intact.
	checkOutput(t, ins, outs, false)
}
