package core

import (
	"sync"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/sortutil"
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

func TestWarmStartConvergesInFewRounds(t *testing.T) {
	// Cold run captures its converged splitters through the sink; a repeat
	// of the same distribution seeded with tight intervals around them must
	// converge in a handful of rounds and still hand out exact shares.
	spec := workload.Spec{Dist: workload.Uniform, Seed: 91, Span: 0} // full range
	p, perRank := 8, 512

	var mu sync.Mutex
	var coldBits []xmath.U128
	sink := func(bits []xmath.U128, iters int) {
		mu.Lock()
		if coldBits == nil {
			coldBits = append([]xmath.U128(nil), bits...)
		}
		mu.Unlock()
	}
	_, coldIters := refineSetup(t, p, perRank, spec, Config{SplitterSink: sink})
	if coldBits == nil {
		t.Fatal("SplitterSink was never called")
	}

	warm := make([]WarmInterval, len(coldBits))
	slack := xmath.U128FromParts(1<<16, 0) // ±2^16 in key space
	for i, b := range coldBits {
		warm[i] = WarmInterval{Lo: b.Sub(slack), Hi: b.Add(slack)}
	}
	_, warmIters := refineSetup(t, p, perRank, spec, Config{Warm: warm})
	if warmIters >= coldIters {
		t.Errorf("warm run took %d rounds, cold %d — no savings", warmIters, coldIters)
	}
	if warmIters > 8 {
		t.Errorf("warm run took %d rounds, want a handful", warmIters)
	}
}

func TestWarmStartStaleIntervalsStayCorrect(t *testing.T) {
	// Adversarial drift: warm intervals pointing at entirely the wrong
	// region must degrade gracefully to the cold path — refineSetup still
	// finds every target bracketed and every share exact: correctness is
	// never traded for speed.
	spec := workload.Spec{Dist: workload.Uniform, Seed: 13, Span: 1e9}
	p := 8
	stale := make([]WarmInterval, p-1)
	for i := range stale {
		// Inside the span but nowhere near a splitter: every interval
		// collapses after a few rounds and restarts from the cold bounds.
		lo := xmath.U128FromParts(uint64(i+1)<<20, 0)
		stale[i] = WarmInterval{Lo: lo, Hi: lo.Add(xmath.U128FromParts(4, 0))}
	}
	_, cold := refineSetup(t, p, 400, spec, Config{})
	if _, got := refineSetup(t, p, 400, spec, Config{Warm: stale}); got <= cold {
		t.Errorf("stale warm intervals took %d rounds, cold %d — the fallback to the cold bounds never ran", got, cold)
	}

	// Far above the [0, 1e9] span: nothing survives the clamp to the extrema.
	for i := range stale {
		lo := xmath.U128FromParts(uint64(i+1)<<40, 0)
		stale[i] = WarmInterval{Lo: lo, Hi: lo.Add(xmath.U128FromParts(4, 0))}
	}
	if _, got := refineSetup(t, p, 400, spec, Config{Warm: stale}); got != cold {
		t.Errorf("out-of-range warm intervals changed rounds: %d vs cold %d", got, cold)
	}

	// Inverted and empty intervals are ignored outright.
	broken := make([]WarmInterval, p-1)
	for i := range broken {
		broken[i] = WarmInterval{Lo: xmath.U128FromParts(9, 0), Hi: xmath.U128FromParts(3, 0)}
	}
	refineSetup(t, p, 400, spec, Config{Warm: broken, Probes: 4})
}

func TestWarmIgnoredOnLengthMismatch(t *testing.T) {
	// A warm vector from a differently-sized world (e.g. a shrink-recovery
	// rerun) must be ignored, not misapplied: same rounds as a cold run.
	spec := workload.Spec{Dist: workload.Uniform, Seed: 29, Span: 1e9}
	p := 8
	_, cold := refineSetup(t, p, 300, spec, Config{})
	mismatched := make([]WarmInterval, p) // p, not p-1
	for i := range mismatched {
		mismatched[i] = WarmInterval{Lo: xmath.U128FromParts(1, 0), Hi: xmath.U128FromParts(2, 0)}
	}
	if _, got := refineSetup(t, p, 300, spec, Config{Warm: mismatched}); got != cold {
		t.Errorf("mismatched warm vector changed rounds: %d vs cold %d", got, cold)
	}
}

func TestPlaceProbes(t *testing.T) {
	lo := xmath.U128From64(100)
	hi := xmath.U128From64(1000)

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
	got = placeProbes(xmath.U128From64(5), xmath.U128From64(8), 8, nil)
	want := []xmath.U128{xmath.U128From64(5), xmath.U128From64(6), xmath.U128From64(7)}
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
	// independent of the round count: on a single-rank world with
	// consecutive integers in a 64-bit range — no gap for a probe to fall
	// into, so ~60 bisection rounds — the pre-reuse loop allocated 2+
	// slices per round.  The bound here is far below that.
	w, _ := comm.NewWorld(1, nil)
	err := w.Run(func(c *comm.Comm) error {
		local := make([]uint64, 4096)
		for i := 1; i < len(local); i++ {
			local[i] = 1<<63 + uint64(i)
		}
		sortutil.Sort(local, keys.Uint64{}.Less)
		targets := []int64{1024, 2048, 3072}
		var iters int
		allocs := testing.AllocsPerRun(10, func() {
			_, iters = FindSplitters(c, local, keys.Uint64{}, targets, 0, Config{Threads: 1})
		})
		if iters < 20 {
			t.Fatalf("expected a long refinement, got %d rounds", iters)
		}
		if allocs > 30 {
			t.Errorf("FindSplitters allocates %.0f times across %d rounds — the loop is not allocation-free", allocs, iters)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
