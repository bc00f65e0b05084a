package hyksort

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
		out, err := Sort(c, local, u64, cfg)
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

func checkOutput(t *testing.T, ins, outs [][]uint64) {
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

func TestHykSortVariousSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8, 16} {
		spec := workload.Spec{Dist: workload.Uniform, Seed: uint64(p) + 40, Span: 1e9}
		ins, outs := runIt(t, p, 400, spec, core.Config{}, nil)
		checkOutput(t, ins, outs)
	}
}

// Each level splits its group min(arity, group size) ways, so the rank
// count sets the arities: 2; 3; 4 then 3 (12 = 4 × 3); 4 then 2 and 1
// (6 = 2+2+1+1).
func TestHykSortArities(t *testing.T) {
	for _, p := range []int{2, 3, 12, 6} {
		spec := workload.Spec{Dist: workload.Normal, Seed: uint64(p), Span: 1e9}
		ins, outs := runIt(t, p, 350, spec, core.Config{}, nil)
		checkOutput(t, ins, outs)
	}
}

func TestHykSortSkewedAndDuplicates(t *testing.T) {
	for _, d := range []workload.Distribution{workload.Zipf, workload.DuplicateHeavy, workload.AllEqual} {
		for _, unique := range []bool{false, true} {
			spec := workload.Spec{Dist: d, Seed: 50, Span: 1e9}
			ins, outs := runIt(t, 9, 300, spec, core.Config{ForceUnique: unique}, nil)
			checkOutput(t, ins, outs)
		}
	}
}

func TestHykSortSparse(t *testing.T) {
	spec := workload.Spec{Dist: workload.Uniform, Seed: 51, Span: 1e9, Sparse: 2}
	ins, outs := runIt(t, 8, 250, spec, core.Config{}, nil)
	checkOutput(t, ins, outs)
}

func TestHykSortUnderCostModel(t *testing.T) {
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 52, Span: 1e9}
	ins, outs := runIt(t, 16, 200, spec, core.Config{}, model)
	checkOutput(t, ins, outs)
	// The recursion must have produced some load; balance is approximate
	// (subgroup shares are exact, within-subgroup placement is not).
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	if total != 16*200 {
		t.Fatal("element count mismatch")
	}
}

func TestHykSortBalanceWithinFactor(t *testing.T) {
	spec := workload.Spec{Dist: workload.Uniform, Seed: 53, Span: 1e9}
	_, outs := runIt(t, 16, 1000, spec, core.Config{}, nil)
	maxN := 0
	for _, o := range outs {
		if len(o) > maxN {
			maxN = len(o)
		}
	}
	// HykSort's balance is looser than histogram sort's but must stay
	// within a small constant factor on uniform data.
	if maxN > 4*1000 {
		t.Errorf("worst-rank load %d exceeds 4x the average", maxN)
	}
}
