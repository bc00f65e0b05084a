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
		for i, s := range localSeeds[K](newMemSource(l, ops, nil), ops, targets, total) {
			mm[i] = MergeMinMax(mm[i], s)
		}
	}
	return mm
}

func TestWarmStartStaleIntervalsStayCorrect(t *testing.T) {
	// Adversarial drift: warm intervals pointing at the wrong region must
	// degrade gracefully — refineSetup still finds every target bracketed
	// and every share exact: correctness is never traded for speed — and
	// cheaply: a seed is one probe inside its boundary's bracket, never an
	// interval to be bisected to collapse.
	spec := workload.Spec{Dist: workload.Uniform, Seed: 13, Span: 1e9}
	const p, perRank = 8, 400
	locals := make([][]uint64, p)
	targets := make([]int64, p-1)
	for r := range locals {
		locals[r], _ = spec.Rank(r, perRank)
		sortutil.Sort(locals[r], keys.Uint64{}.Less)
		if r < p-1 {
			targets[r] = int64((r + 1) * perRank)
		}
	}
	brackets := seedBrackets(locals, keys.Uint64{}, targets)[1:]
	_, cold := refineSetup(t, p, perRank, spec, Config{})

	// One bracket-width off: the seed misses the bracket and is dropped
	// before round 1.  (Clamped to the global extrema it was bisected to
	// collapse and then restarted over the whole key range.)
	stale := make([]WarmInterval, p-1)
	for i, b := range brackets {
		w := b.Max.Sub(b.Min)
		stale[i] = WarmInterval{Lo: b.Min.Add(w), Hi: b.Max.Add(w)}
	}
	if _, got := refineSetup(t, p, perRank, spec, Config{Warm: stale}); got != cold {
		t.Errorf("warm intervals one bracket-width off took %d rounds, no warm intervals %d", got, cold)
	}

	// Inside the bracket but nowhere near the splitter: the seed is one
	// wasted probe, whose verdict still narrows the bracket.
	for i, b := range brackets {
		stale[i] = WarmInterval{Lo: b.Min, Hi: b.Min.Add(xmath.U128FromParts(4, 0))}
	}
	if _, got := refineSetup(t, p, perRank, spec, Config{Warm: stale}); got > cold+2 {
		t.Errorf("stale warm intervals inside their brackets took %d rounds, cold %d — want at most the seed's round more", got, cold)
	}

	// Far above the [0, 1e9] span: nothing overlaps a bracket.
	for i := range stale {
		lo := xmath.U128FromParts(uint64(i+1)<<40, 0)
		stale[i] = WarmInterval{Lo: lo, Hi: lo.Add(xmath.U128FromParts(4, 0))}
	}
	if _, got := refineSetup(t, p, perRank, spec, Config{Warm: stale}); got != cold {
		t.Errorf("out-of-range warm intervals changed rounds: %d vs cold %d", got, cold)
	}

	// Inverted and empty intervals are ignored outright.
	broken := make([]WarmInterval, p-1)
	for i := range broken {
		broken[i] = WarmInterval{Lo: xmath.U128FromParts(9, 0), Hi: xmath.U128FromParts(3, 0)}
	}
	refineSetup(t, p, perRank, spec, Config{Warm: broken, Probes: 4})
}

func TestWarmSeed(t *testing.T) {
	u := func(x uint64) xmath.U128 { return xmath.U128{Lo: x} }
	bracket := MinMax{Has: true, Min: u(100), Max: u(200)}
	for _, tc := range []struct {
		name   string
		lo, hi uint64
		seed   uint64
		ok     bool
	}{
		{"inside", 120, 140, 130, true},
		{"covers the bracket", 50, 270, 160, true},
		{"sticks out below", 90, 130, 110, true},
		{"midpoint on the edge", 150, 250, 200, true},
		{"midpoint outside", 170, 290, 0, false},
		{"disjoint", 300, 400, 0, false},
		{"one bracket-width off", 201, 301, 0, false},
		{"empty", 150, 150, 0, false},
		{"inverted", 180, 120, 0, false},
	} {
		seed, ok := warmSeed(WarmInterval{Lo: u(tc.lo), Hi: u(tc.hi)}, bracket)
		if ok != tc.ok || ok && seed != u(tc.seed) {
			t.Errorf("%s: warmSeed([%d, %d]) = %v, %v; want %d, %v", tc.name, tc.lo, tc.hi, seed, ok, tc.seed, tc.ok)
		}
	}

	// The seed is the boundary's first probe, once; the bisection midpoint
	// follows.
	b := &bisect[uint64]{ops: keys.Uint64{}, k: 1, states: []splitterState[uint64]{
		{lo: xmath.U128FromParts(100, 0), hi: xmath.U128FromParts(200, 0), seed: xmath.U128FromParts(130, 0), seeded: true}}}
	st := &b.states[0]
	mids := b.Place(0, nil)
	if len(b.points) != 1 || b.points[0] != st.seed || mids[0] != 130 || st.seeded {
		t.Errorf("first round probes %v (keys %v), want the seed", b.points, mids)
	}
	if b.Place(0, nil); len(b.points) != 1 || b.points[0] != st.lo.Avg(st.hi) {
		t.Errorf("second round probes %v, want the midpoint", b.points)
	}
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
