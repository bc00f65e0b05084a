package hss

import (
	"reflect"
	"sync"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/fault"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

// TestHSSSurvivesFaultSchedule mirrors core's acceptance test for the HSS
// supersteps: a seeded 5% drop schedule with two crashes at the splitting
// and cuts boundaries must leave the P=16 output bit-identical to the
// fault-free run — the sampled splitter path checkpoints exactly like the
// histogram path.
func TestHSSSurvivesFaultSchedule(t *testing.T) {
	const p, perRank = 16, 1024
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 3, Span: 1e9}
	cfg := core.Config{Threads: 1}
	plan := fault.Plan{
		Seed:     7,
		DropRate: 0.05,
		Crashes: []fault.Crash{
			{Rank: p / 3, Step: core.StepSplitting},
			{Rank: 2 * p / 3, Step: core.StepCuts},
		},
	}

	run := func(pl fault.Plan) [][]uint64 {
		w, err := comm.NewWorldWithFaults(p, model, pl)
		if err != nil {
			t.Fatal(err)
		}
		outs := make([][]uint64, p)
		var mu sync.Mutex
		err = w.Run(func(c *comm.Comm) error {
			local, err := spec.Rank(c.Rank(), perRank)
			if err != nil {
				return err
			}
			out, err := Sort(c, local, u64, cfg, 21)
			if err != nil {
				return err
			}
			mu.Lock()
			outs[c.Rank()] = out
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}

	want := run(fault.Plan{})
	got := run(plan)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("HSS output under the fault schedule differs from the fault-free run")
	}
	ins := make([][]uint64, p)
	for r := range ins {
		local, err := spec.Rank(r, perRank)
		if err != nil {
			t.Fatal(err)
		}
		ins[r] = local
	}
	checkOutput(t, ins, got, true)
}
