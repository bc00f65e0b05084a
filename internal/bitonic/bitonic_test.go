package bitonic

import (
	"sort"
	"sync"
	"testing"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

var u64 = keys.Uint64{}

func runIt(t *testing.T, p, perRank int, spec workload.Spec, model *simnet.CostModel) (ins, outs [][]uint64) {
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
		out, err := Sort(c, local, u64, core.Config{})
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
		if len(out) != len(ins[r]) {
			t.Fatalf("bitonic must preserve local sizes: rank %d has %d", r, len(out))
		}
		for i, v := range out {
			if !first && v < prev {
				t.Fatalf("order violated at rank %d index %d", r, i)
			}
			prev, first = v, false
		}
		got = append(got, out...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i := range all {
		if got[i] != all[i] {
			t.Fatalf("not a permutation at %d", i)
		}
	}
}

func TestBitonicPowerOfTwo(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16} {
		for _, d := range []workload.Distribution{workload.Uniform, workload.Normal, workload.DuplicateHeavy} {
			spec := workload.Spec{Dist: d, Seed: uint64(p) + 60, Span: 1e9}
			ins, outs := runIt(t, p, 256, spec, nil)
			checkOutput(t, ins, outs)
		}
	}
}

func TestBitonicRejectsNonPowerOfTwo(t *testing.T) {
	w, _ := comm.NewWorld(6, nil)
	err := w.Run(func(c *comm.Comm) error {
		_, err := Sort(c, []uint64{1}, u64, core.Config{})
		if err == nil {
			t.Error("expected rejection of p=6")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBitonicRejectsUnequalSizes(t *testing.T) {
	w, _ := comm.NewWorld(4, nil)
	err := w.Run(func(c *comm.Comm) error {
		local := make([]uint64, 10+c.Rank())
		_, err := Sort(c, local, u64, core.Config{})
		if err == nil {
			t.Error("expected rejection of unequal sizes")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBitonicEmpty(t *testing.T) {
	spec := workload.Spec{Dist: workload.Uniform, Seed: 1, Span: 100}
	ins, outs := runIt(t, 4, 0, spec, nil)
	checkOutput(t, ins, outs)
}

func TestBitonicUnderCostModel(t *testing.T) {
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 61, Span: 1e9}
	ins, outs := runIt(t, 8, 300, spec, model)
	checkOutput(t, ins, outs)
}

func TestBitonicMovesDataLogPTimes(t *testing.T) {
	// §III-C: bitonic transfers each element log P times; the histogram
	// sort moves it once.  Check the communication volume ratio.
	model := simnet.SuperMUC(4, true)
	w, _ := comm.NewWorld(8, model)
	perRank := 512
	err := w.Run(func(c *comm.Comm) error {
		spec := workload.Spec{Dist: workload.Uniform, Seed: 62, Span: 1e9}
		local, _ := spec.Rank(c.Rank(), perRank)
		_, err := Sort(c, local, u64, core.Config{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := w.TotalStats()
	// log2(8) = 3 stages, 6 total rounds (3+2+1), full array each round:
	// volume = 6 * P * perRank * 8 bytes (plus small control traffic).
	wantData := int64(6 * 8 * perRank * 8)
	if stats.TotalBytes() < wantData {
		t.Errorf("bitonic volume %d below the log-P floor %d", stats.TotalBytes(), wantData)
	}
}

// TestBitonicMergeScales: the merge stages price the virtual volume, like
// the local sort, so the Merge phase grows with the scale.
func TestBitonicMergeScales(t *testing.T) {
	merge := func(scale float64) time.Duration {
		w, err := comm.NewWorld(4, simnet.SuperMUC(4, true))
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var most time.Duration
		err = w.Run(func(c *comm.Comm) error {
			local, err := workload.Spec{Dist: workload.Uniform, Seed: 63, Span: 1e9}.Rank(c.Rank(), 256)
			if err != nil {
				return err
			}
			rec := metrics.ForComm(c)
			if _, err := Sort(c, local, u64, core.Config{VirtualScale: scale, Recorder: rec}); err != nil {
				return err
			}
			mu.Lock()
			most = max(most, rec.Times[metrics.Merge])
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return most
	}
	if small, large := merge(1), merge(1000); large < 100*small {
		t.Errorf("Merge phase %v at scale 1000, %v at scale 1: want it to grow with the scale", large, small)
	}
}
