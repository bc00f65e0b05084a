package core

import (
	"sort"
	"sync"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/workload"
)

func TestQuantilesEquiDepth(t *testing.T) {
	const p, perRank, q = 6, 1500, 10
	locals := make([][]uint64, p)
	var all []uint64
	for r := 0; r < p; r++ {
		spec := workload.Spec{Dist: workload.Zipf, Seed: 101, Span: 1e9}
		locals[r], _ = spec.Rank(r, perRank)
		all = append(all, locals[r]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	w, _ := comm.NewWorld(p, nil)
	var once sync.Once
	cuts := make([]uint64, 0, q-1)
	err := w.Run(func(c *comm.Comm) error {
		got, err := Quantiles(c, locals[c.Rank()], q, u64, Config{})
		if err != nil {
			return err
		}
		once.Do(func() { cuts = append(cuts, got...) })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != q-1 {
		t.Fatalf("got %d cuts", len(cuts))
	}
	n := int64(len(all))
	for i, cut := range cuts {
		target := n * int64(i+1) / int64(q)
		// The cut splits at its target rank: target keys can order before
		// it with every key ordering after it above them (the count
		// interval of Definition 4, closed at lo — a cut need not be an
		// input key).
		lo := int64(sort.Search(len(all), func(j int) bool { return all[j] >= cut }))
		hi := int64(sort.Search(len(all), func(j int) bool { return all[j] > cut }))
		if !(lo <= target && target <= hi) {
			t.Errorf("cut %d: rank window [%d,%d] misses target %d", i, lo, hi, target)
		}
	}
}

func TestQuantilesSingleBucket(t *testing.T) {
	w, _ := comm.NewWorld(3, nil)
	err := w.Run(func(c *comm.Comm) error {
		cuts, err := Quantiles(c, []uint64{1, 2, 3}, 1, u64, Config{})
		if err != nil {
			return err
		}
		if len(cuts) != 0 {
			t.Errorf("one bucket needs no cuts, got %d", len(cuts))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuantilesMedianMatchesDSelect(t *testing.T) {
	const p, perRank = 4, 3000
	w, _ := comm.NewWorld(p, nil)
	err := w.Run(func(c *comm.Comm) error {
		spec := workload.Spec{Dist: workload.Uniform, Seed: 103, Span: 1e9}
		local, _ := spec.Rank(c.Rank(), perRank)
		cuts, err := Quantiles(c, local, 2, u64, Config{})
		if err != nil {
			return err
		}
		med, err := DSelect(c, local, int64(p*perRank/2), u64, Config{})
		if err != nil {
			return err
		}
		// The 2-quantile cut has rank window containing N/2; DSelect's
		// median is the exact N/2-th element.  They agree on uniform
		// unique-ish data to within neighbouring elements.
		if cuts[0] > med+2e6 || med > cuts[0]+2e6 {
			t.Errorf("median %d and 2-quantile %d diverge", med, cuts[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuantilesValidation(t *testing.T) {
	w, _ := comm.NewWorld(1, nil)
	err := w.Run(func(c *comm.Comm) error {
		if _, err := Quantiles(c, []uint64{1}, 0, u64, Config{}); err == nil {
			t.Error("q=0 must be rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
