package core

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"dhsort/internal/comm"
	"dhsort/internal/prng"
)

// TestSortPropertyRandomConfigs drives the full pipeline with randomized
// rank counts, skewed per-rank sizes (including empty ranks), duplicate
// densities and configuration knobs, checking the complete contract
// against a sequential oracle every time.
func TestSortPropertyRandomConfigs(t *testing.T) {
	f := func(seed uint64, pRaw, spanRaw uint8, mergeRaw, exchRaw uint8, eps bool) bool {
		p := int(pRaw%12) + 1
		span := uint64(spanRaw)%1000 + 1 // small spans force heavy duplication
		cfg := Config{
			Merge:    MergeStrategy(int(mergeRaw) % 3),
			Exchange: comm.AlltoallAlgorithm(int(exchRaw) % 4),
		}
		if eps {
			cfg.Epsilon = 0.25
		}
		src := prng.NewSplitMix64(seed)
		locals := make([][]uint64, p)
		var all []uint64
		for r := 0; r < p; r++ {
			n := int(prng.Uint64n(src, 200)) // uneven, possibly zero
			locals[r] = make([]uint64, n)
			for i := range locals[r] {
				locals[r][i] = prng.Uint64n(src, span)
			}
			all = append(all, locals[r]...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

		outs := make([][]uint64, p)
		var mu sync.Mutex
		w, err := comm.NewWorld(p, nil)
		if err != nil {
			return false
		}
		err = w.Run(func(c *comm.Comm) error {
			out, err := Sort(c, locals[c.Rank()], u64, cfg)
			if err != nil {
				return err
			}
			mu.Lock()
			outs[c.Rank()] = out
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Logf("seed=%d p=%d: %v", seed, p, err)
			return false
		}
		// Oracle comparison: concatenation equals the sorted input.
		var got []uint64
		for r, out := range outs {
			if cfg.Epsilon == 0 && len(out) != len(locals[r]) {
				t.Logf("seed=%d p=%d rank=%d: size %d != %d", seed, p, r, len(out), len(locals[r]))
				return false
			}
			got = append(got, out...)
		}
		if len(got) != len(all) {
			return false
		}
		for i := range all {
			if got[i] != all[i] {
				t.Logf("seed=%d p=%d: mismatch at %d", seed, p, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDSelectPropertyRandom cross-checks distributed selection against the
// oracle under random shapes.
func TestDSelectPropertyRandom(t *testing.T) {
	f := func(seed uint64, pRaw, kRaw uint8) bool {
		p := int(pRaw%8) + 1
		src := prng.NewSplitMix64(seed ^ 0xabcdef)
		locals := make([][]uint64, p)
		var all []uint64
		for r := 0; r < p; r++ {
			n := int(prng.Uint64n(src, 300))
			locals[r] = make([]uint64, n)
			for i := range locals[r] {
				locals[r][i] = prng.Uint64n(src, 500)
			}
			all = append(all, locals[r]...)
		}
		if len(all) == 0 {
			return true
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		k := int64(kRaw) % int64(len(all))
		want := all[k]

		ok := true
		w, _ := comm.NewWorld(p, nil)
		err := w.Run(func(c *comm.Comm) error {
			got, err := DSelect(c, locals[c.Rank()], k, u64, Config{})
			if err != nil {
				return err
			}
			if got != want {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
