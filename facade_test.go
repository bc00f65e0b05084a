package dhsort

import (
	"sort"
	"sync"
	"testing"

	"dhsort/internal/prng"
	"dhsort/internal/workload"
)

func TestPublicQuantiles(t *testing.T) {
	const p, perRank = 4, 2000
	err := Run(p, nil, func(c *Comm) error {
		spec := workload.Spec{Dist: workload.Uniform, Seed: 7, Span: 1e9}
		local, _ := spec.Rank(c.Rank(), perRank)
		cuts, err := Quantiles(c, local, 4, Uint64Ops)
		if err != nil {
			return err
		}
		if len(cuts) != 3 {
			t.Errorf("got %d cuts", len(cuts))
		}
		// Quartiles of uniform [0,1e9] land near 0.25/0.5/0.75 · 1e9.
		for i, cut := range cuts {
			want := float64(i+1) * 0.25 * 1e9
			if float64(cut) < want*0.9 || float64(cut) > want*1.1 {
				t.Errorf("quartile %d = %d, want ~%.0f", i, cut, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicPlanRoundtrip(t *testing.T) {
	const p, perRank = 5, 400
	outs := make([][]uint64, p)
	var mu sync.Mutex
	err := Run(p, nil, func(c *Comm) error {
		spec := workload.Spec{Dist: workload.Normal, Seed: 8, Span: 1e9}
		local, _ := spec.Rank(c.Rank(), perRank)
		plan, err := MakePlan(c, local, Uint64Ops, Config{})
		if err != nil {
			return err
		}
		got, err := ExecutePlan(c, plan, local, Config{})
		if err != nil {
			return err
		}
		if len(got) != perRank {
			t.Errorf("rank %d: plan execution yielded %d elements", c.Rank(), len(got))
		}
		mu.Lock()
		outs[c.Rank()] = got
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Per-rank value ranges must be disjoint ascending (arrival order is
	// not fully sorted, but ownership ranges are).
	var prevMax uint64
	for r, out := range outs {
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
			t.Fatalf("rank %d range overlaps predecessor", r)
		}
		prevMax = mx
	}
}

func TestPublicGlobalArray(t *testing.T) {
	err := Run(6, SuperMUCModel(16, true), func(c *Comm) error {
		arr, err := NewGlobalArray[uint64](c, 300, 8)
		if err != nil {
			return err
		}
		src := prng.NewXoshiro256(uint64(c.Rank()))
		arr.Fill(func(i int64) uint64 { return prng.Uint64n(src, 1e6) })
		arr.Barrier()
		if err := arr.Sort(Uint64Ops, Config{}); err != nil {
			return err
		}
		if !arr.IsSorted(Uint64Ops) {
			t.Error("global array not sorted")
		}
		med, err := arr.NthElement(arr.Len()/2, Uint64Ops)
		if err != nil {
			return err
		}
		// The median of the sorted array equals the middle element.
		if got := arr.Get(arr.Len() / 2); got != med {
			t.Errorf("median mismatch: %d vs %d", got, med)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicSortStrings(t *testing.T) {
	words := [][]string{
		{"pear", "apple", "quince"},
		{"banana", "fig", "apple"},
		{"cherry", "date", "elderberry"},
	}
	outs := make([][]string, 3)
	var mu sync.Mutex
	err := Run(3, nil, func(c *Comm) error {
		got, err := Sort(c, words[c.Rank()], StringOps, Config{})
		if err != nil {
			return err
		}
		mu.Lock()
		outs[c.Rank()] = got
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var all, flat []string
	for _, w := range words {
		all = append(all, w...)
	}
	sort.Strings(all)
	for _, o := range outs {
		flat = append(flat, o...)
	}
	for i := range all {
		if flat[i] != all[i] {
			t.Fatalf("mismatch at %d: %q vs %q", i, flat[i], all[i])
		}
	}
}

func TestPublicMergeStrategiesExposed(t *testing.T) {
	for _, m := range []MergeStrategy{MergeResort, MergeBinaryTree, MergeOverlap} {
		if m.String() == "" {
			t.Errorf("strategy %d has no name", int(m))
		}
	}
}
