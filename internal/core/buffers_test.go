package core

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"dhsort/internal/comm"
	"dhsort/internal/fault"
	"dhsort/internal/keys"
	"dhsort/internal/sortutil"
	"dhsort/internal/workload"
)

// residentOpBytes is the heap a warm resident Sort allocates per rank and
// op on a PersistentWorld of p ranks with no model and no fault plan — the
// service's and the wall benchmark's world —, read from
// runtime.MemStats.TotalAlloc over a few ops after a few warm-up ones.  The
// outputs of the last op stay live, as a caller's would.
func residentOpBytes[K any](t *testing.T, p int, locals [][]K, ops keys.Ops[K]) float64 {
	t.Helper()
	const warm, measured = 2, 4
	pw, err := comm.NewPersistentWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()
	outs := make([][]K, p)
	op := func() {
		err := pw.Execute(func(c *comm.Comm) error {
			out, err := Sort(c, locals[c.Rank()], ops, Config{Threads: 1})
			outs[c.Rank()] = out
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for range warm {
		op()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range measured {
		op()
	}
	runtime.ReadMemStats(&after)
	for r, out := range outs {
		if len(out) != len(locals[r]) || !sortutil.IsSorted(out, ops.Less) {
			t.Fatalf("rank %d: %d keys out of %d in, sorted: %v", r, len(out), len(locals[r]), sortutil.IsSorted(out, ops.Less))
		}
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(measured*p)
}

// TestResidentSortBuffers pins the buffers a warm resident sort allocates
// per rank and op, in n-sized buffers of 8-byte keys: a uint64 sort two —
// the partition, which the merge overwrites, and the arena scratch the radix
// Local Sort used and the exchange lands in —, a float64 sort (the re-sort
// path) four — the partition, the arena's two image buffers, and the element
// scratch the exchange lands in.  The slack of a quarter buffer covers the
// splitter rounds, the cuts and the block tables; a merge that allocates its
// output again costs a whole buffer.
func TestResidentSortBuffers(t *testing.T) {
	const p, n = 4, 1 << 16
	spec := workload.Spec{Dist: workload.Uniform, Seed: 11}
	ints := make([][]uint64, p)
	floats := make([][]float64, p)
	for r := range ints {
		var err error
		if ints[r], err = spec.Rank(r, n); err != nil {
			t.Fatal(err)
		}
		floats[r] = workload.Floats(ints[r])
	}
	buffer := float64(8 * n)
	for _, row := range []struct {
		name    string
		buffers float64
		bytes   func() float64
	}{
		{"uint64", 2, func() float64 { return residentOpBytes(t, p, ints, keys.Uint64{}) }},
		{"float64", 4, func() float64 { return residentOpBytes(t, p, floats, keys.Float64{}) }},
	} {
		got := row.bytes()
		t.Logf("%s: %.0f bytes per rank and op = %.2f buffers of %d keys", row.name, got, got/buffer, n)
		if got > (row.buffers+0.25)*buffer {
			t.Errorf("%s: a warm resident sort allocates %.2f buffers of %d keys per rank and op, want at most %.0f", row.name, got/buffer, n, row.buffers)
		}
	}
}

// TestExchangeAndMergeArenaKeepsSorted: ExchangeAndMergeArena reads its
// caller's partition and never writes it — the merge that reuses the dead
// partition is sortSteps' alone — for keys merged as images and for keys
// re-sorted, through a warm arena.
func TestExchangeAndMergeArenaKeepsSorted(t *testing.T) {
	const p, n = 5, 3000
	spec := workload.Spec{Dist: workload.Zipf, Seed: 5}
	ints := make([][]uint64, p)
	for r := range ints {
		var err error
		if ints[r], err = spec.Rank(r, n); err != nil {
			t.Fatal(err)
		}
		slices.Sort(ints[r])
	}
	checkKeepsSorted(t, ints, keys.Uint64{})
	floats := make([][]float64, p)
	for r := range floats {
		floats[r] = workload.Floats(ints[r])
	}
	checkKeepsSorted(t, floats, keys.Float64{})
}

func checkKeepsSorted[K any](t *testing.T, sorted [][]K, ops keys.Ops[K]) {
	t.Helper()
	p := len(sorted)
	targets := make([]int64, p-1)
	for i := range targets {
		targets[i] = int64((i + 1) * len(sorted[0]))
	}
	outs := make([][]K, p)
	w, err := comm.NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *comm.Comm) error {
		mine := sorted[c.Rank()]
		orig := slices.Clone(mine)
		splitters, _ := FindSplitters(c, mine, ops, targets, 0, Config{Threads: 1})
		cuts := ComputeCuts(c, mine, ops, splitters, targets, Config{Threads: 1})
		ar := &sortutil.Arena[K]{}
		LocalSortKernel(slices.Clone(mine), ops, "", 1, ar) // warm the arena as Local Sort does
		outs[c.Rank()] = ExchangeAndMergeArena(c, mine, ops, cuts, Config{Threads: 1}, ar)
		if !slices.EqualFunc(mine, orig, func(a, b K) bool { return !ops.Less(a, b) && !ops.Less(b, a) }) {
			t.Errorf("%T rank %d: ExchangeAndMergeArena wrote its caller's partition", ops, c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var all, want []K
	for r := range sorted {
		all = append(all, outs[r]...)
		want = append(want, sorted[r]...)
	}
	sortutil.Sort(want, ops.Less)
	if !slices.EqualFunc(all, want, func(a, b K) bool { return !ops.Less(a, b) && !ops.Less(b, a) }) {
		t.Errorf("%T: the concatenated outputs are not the sorted input", ops)
	}
}

// TestMergeSparesCheckpoints: under a fault injector, with ranks that crash
// and restore at every boundary, the partition the merge overwrites is never
// a checkpoint copy — snapshot copies into the checkpoint's storage and
// install copies out of it —, so after the sort each rank's primary, its
// replica and the mirror it holds of its predecessor still pass their
// audits, and none shares memory with the output.
func TestMergeSparesCheckpoints(t *testing.T) {
	const p, n = 6, 4096
	plan := fault.Plan{Seed: 3, Crashes: []fault.Crash{
		{Rank: 1, Step: StepLocalSort}, {Rank: 2, Step: StepSplitting},
		{Rank: 3, Step: StepCuts}, {Rank: 4, Step: StepCuts},
	}}
	w, err := comm.NewWorldWithFaults(p, nil, plan)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{Dist: workload.Uniform, Seed: 9}
	err = w.Run(func(c *comm.Comm) error {
		local, err := spec.Rank(c.Rank(), n)
		if err != nil {
			return err
		}
		ck := &checkpoint[uint64]{}
		out, err := sortSteps(c, local, u64, Config{Threads: 1}, bisection[uint64](Config{}), ck)
		if err != nil {
			return err
		}
		for name, s := range map[string]ckptShard[uint64]{"primary": ck.copies[0], "replica": ck.copies[1], "mirror": ck.mirror} {
			if sum, err := checksum(u64, s, nil, "", nil); err != nil || sum != s.Desc.Sum {
				t.Errorf("rank %d: the %s checkpoint fails its audit after the merge (%v)", c.Rank(), name, err)
			}
			if len(s.Sorted) > 0 && len(out) > 0 && overlaps(s.Sorted, out) {
				t.Errorf("rank %d: the output shares memory with the %s checkpoint", c.Rank(), name)
			}
		}
		if s := ck.copies[0]; int(s.Desc.Step) != StepCuts || len(s.Sorted) != n {
			t.Errorf("rank %d: the primary holds step %d with %d keys", c.Rank(), s.Desc.Step, len(s.Sorted))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// overlaps reports whether a and b, both non-empty, share memory.
func overlaps(a, b []uint64) bool {
	at := func(s []uint64) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(s))) }
	return at(a) < at(b)+uintptr(8*len(b)) && at(b) < at(a)+uintptr(8*len(a))
}
