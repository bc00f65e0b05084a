package samplesort

import (
	"sort"
	"sync"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/keys"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

var u64 = keys.Uint64{}

func runIt(t *testing.T, p, perRank int, spec workload.Spec, cfg core.Config, model *simnet.CostModel) (ins, outs [][]uint64) {
	t.Helper()
	w, err := comm.NewWorld(p, model)
	if err != nil {
		t.Fatal(err)
	}
	ins = make([][]uint64, p)
	outs = make([][]uint64, p)
	var mu sync.Mutex
	err = w.Run(func(c *comm.Comm) error {
		local, err := spec.Rank(c.Rank(), perRank)
		if err != nil {
			return err
		}
		out, _, err := SortResilient(c, local, u64, cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		ins[c.Rank()] = local
		outs[c.Rank()] = out
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ins, outs
}

func checkSortedPermutation(t *testing.T, ins, outs [][]uint64) {
	t.Helper()
	var all, got []uint64
	for _, in := range ins {
		all = append(all, in...)
	}
	var prev uint64
	first := true
	for r, out := range outs {
		for i, v := range out {
			if !first && v < prev {
				t.Fatalf("order violated at rank %d index %d", r, i)
			}
			prev, first = v, false
		}
		got = append(got, out...)
	}
	if len(got) != len(all) {
		t.Fatalf("count changed: %d -> %d", len(all), len(got))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i := range all {
		if got[i] != all[i] {
			t.Fatalf("not a permutation at %d", i)
		}
	}
}

func TestSampleSortRankCounts(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 13} {
		spec := workload.Spec{Dist: workload.Uniform, Seed: uint64(p) + 1, Span: 1e9}
		ins, outs := runIt(t, p, 500, spec, core.Config{Threads: 1}, nil)
		checkSortedPermutation(t, ins, outs)
	}
}

func TestSampleSortSkewedAndDuplicates(t *testing.T) {
	for _, d := range []workload.Distribution{workload.Zipf, workload.DuplicateHeavy, workload.AllEqual, workload.NearlySorted} {
		spec := workload.Spec{Dist: d, Seed: 9, Span: 1e9}
		ins, outs := runIt(t, 6, 400, spec, core.Config{Threads: 1}, nil)
		checkSortedPermutation(t, ins, outs)
	}
}

func TestSampleSortSparse(t *testing.T) {
	spec := workload.Spec{Dist: workload.Uniform, Seed: 4, Span: 1e9, Sparse: 2}
	ins, outs := runIt(t, 8, 300, spec, core.Config{Threads: 1}, nil)
	checkSortedPermutation(t, ins, outs)
}

func TestSampleSortEmpty(t *testing.T) {
	spec := workload.Spec{Dist: workload.Uniform, Seed: 4, Span: 1e9}
	ins, outs := runIt(t, 4, 0, spec, core.Config{Threads: 1}, nil)
	checkSortedPermutation(t, ins, outs)
}

func TestRegularSamplingBalancesBetter(t *testing.T) {
	// §III-A: regular sampling balances uniform inputs far better than
	// its probabilistic O(1 + 1/√s) bound promises.
	spec := workload.Spec{Dist: workload.Uniform, Seed: 31, Span: 1e9}
	_, outs := runIt(t, 8, 2000, spec, core.Config{Threads: 1}, nil)
	maxN := 0
	for _, o := range outs {
		maxN = max(maxN, len(o))
	}
	if reg := float64(maxN) / 2000; reg > 1.35 {
		t.Errorf("regular sampling imbalance %v too high", reg)
	}
}

func TestSampleSortUnderCostModel(t *testing.T) {
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 8, Span: 1e9}
	ins, outs := runIt(t, 12, 250, spec, core.Config{Threads: 1}, model)
	checkSortedPermutation(t, ins, outs)
}
