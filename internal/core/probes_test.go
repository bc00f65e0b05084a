package core

import (
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/workload"
	"dhsort/internal/xmath"
)

// refineSetup runs the splitter phase once under cfg (splitPhase checks the
// count interval and the exact hand-out) and returns the splitter values and
// the iteration count.
func refineSetup(t *testing.T, p, perRank int, spec workload.Spec, cfg Config) ([]uint64, int) {
	t.Helper()
	return splitPhase(t, p, func(r int) []uint64 {
		local, _ := spec.Rank(r, perRank)
		return local
	}, keys.Uint64{}, cfg)
}

func TestSortCorrectAcrossProbeCounts(t *testing.T) {
	// End-to-end: every probe count must produce the identical perfect
	// partition the bisection produces.
	for _, probes := range []int{0, 2, 4, 8, 16, 64} {
		spec := workload.Spec{Dist: workload.Zipf, Seed: 77, Span: 1e9}
		p, perRank := 7, 300
		w, _ := comm.NewWorld(p, nil)
		err := w.Run(func(c *comm.Comm) error {
			local, err := spec.Rank(c.Rank(), perRank)
			if err != nil {
				return err
			}
			out, err := Sort(c, local, keys.Uint64{}, Config{Probes: probes})
			if err != nil {
				return err
			}
			if len(out) != perRank {
				t.Errorf("probes=%d: rank %d holds %d elements, want %d", probes, c.Rank(), len(out), perRank)
			}
			if !IsGloballySorted(c, out, keys.Uint64{}) {
				t.Errorf("probes=%d: output not globally sorted", probes)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("probes=%d: %v", probes, err)
		}
	}
}

// seedBrackets folds every rank's localSeeds the way the opening reduction
// of FindSplitters does: element 0 the global extrema, element i+1 the
// bracket of boundary i.  locals are the ranks' sorted partitions.
func seedBrackets[K any](locals [][]K, ops keys.Ops[K], targets []int64) []MinMax {
	var total int64
	for _, l := range locals {
		total += int64(len(l))
	}
	mm := make([]MinMax, len(targets)+1)
	for _, l := range locals {
		for i, s := range localSeeds[K](newMemSource(l, ops, nil), keys.ImageOf(ops).Lossless, targets, total) {
			mm[i] = MergeMinMax(mm[i], s)
		}
	}
	return mm
}

func TestPlaceProbes(t *testing.T) {
	lo := xmath.U128{Lo: 100}
	hi := xmath.U128{Lo: 1000}

	// k = 1: the bisection midpoint.
	got := placeProbes(lo, hi, 1, nil)
	if len(got) != 1 || got[0] != lo.Avg(hi) {
		t.Errorf("k=1: %v", got)
	}

	// General case: k evenly spaced interior points, ascending, within
	// [lo, hi).
	got = placeProbes(lo, hi, 8, nil)
	if len(got) != 8 {
		t.Fatalf("k=8: %d probes", len(got))
	}
	for i, b := range got {
		if b.Less(lo) || !b.Less(hi) {
			t.Errorf("probe %d = %v outside [%v, %v)", i, b, lo, hi)
		}
		if i > 0 && !got[i-1].Less(b) {
			t.Errorf("probes not ascending at %d", i)
		}
	}

	// Narrow interval: every candidate in [lo, hi).
	got = placeProbes(xmath.U128{Lo: 5}, xmath.U128{Lo: 8}, 8, nil)
	want := []xmath.U128{{Lo: 5}, {Lo: 6}, {Lo: 7}}
	if len(got) != len(want) {
		t.Fatalf("narrow: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("narrow: %v", got)
		}
	}

	// Collapsed interval: the single point.
	got = placeProbes(lo, lo, 8, nil)
	if len(got) != 1 || got[0] != lo {
		t.Errorf("collapsed: %v", got)
	}

	// Full-range interval: no overflow, still ascending and interior.
	got = placeProbes(xmath.U128{}, xmath.MaxU128, 16, nil)
	if len(got) != 16 {
		t.Fatalf("full range: %d probes", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !got[i-1].Less(got[i]) {
			t.Errorf("full range: probes not ascending at %d", i)
		}
	}
}

func TestRefinementLoopAllocationFree(t *testing.T) {
	// The per-round helpers must not allocate when given capacity...
	dst := make([]xmath.U128, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		dst = placeProbes(xmath.U128{}, xmath.MaxU128, 16, dst[:0])
	})
	if allocs != 0 {
		t.Errorf("placeProbes allocates %.1f times per call", allocs)
	}

	// ...and the whole refinement must allocate a small constant
	// independent of the round count.  Three ranks hold a rank-partitioned
	// input whose middle is consecutive integers in a 64-bit range — brackets
	// as wide as the key space and no gap for a probe to fall into, so ~60
	// bisection rounds — and AllocsPerRun on rank 0 counts the mallocs of the
	// whole process, the other two ranks making the same calls: the pre-reuse
	// loop allocated 2+ slices per rank and round.  The bound is far below
	// that.
	const p, perRank, runs = 3, 1024, 10
	gen := rankPartitioned(p, perRank, denseMiddle(p, perRank), keys.Uint64{})
	targets := []int64{perRank + 300, perRank + 700} // inside the dense middle
	w, _ := comm.NewWorld(p, nil)
	err := w.Run(func(c *comm.Comm) error {
		local := gen(c.Rank())
		var iters int
		find := func() { _, iters = FindSplitters(c, local, keys.Uint64{}, targets, 0, Config{Threads: 1}) }
		find() // the free lists reach their working size
		if c.Rank() != 0 {
			for i := 0; i < runs+1; i++ { // AllocsPerRun makes one extra warm-up call
				find()
			}
			return nil
		}
		allocs := testing.AllocsPerRun(runs, find)
		if iters < 60 {
			t.Fatalf("expected a long refinement, got %d rounds", iters)
		}
		if allocs > 20*p { // measured: 41
			t.Errorf("FindSplitters allocates %.0f times on %d ranks across %d rounds — the loop is not allocation-free", allocs, p, iters)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
