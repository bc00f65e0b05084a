package psort

import (
	"runtime"
	"sync/atomic"
	"testing"

	"dhsort/internal/prng"
	"dhsort/internal/sortutil"
)

// withProcs raises GOMAXPROCS so fork-join paths genuinely run concurrently
// even on single-core CI containers, restoring it afterwards.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	withProcs(t, 4)
	for _, n := range []int{0, 1, 7, 100, 1000} {
		for _, workers := range []int{0, 1, 3, 8, 100} {
			counts := make([]int32, n)
			ParallelFor(n, workers, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestParallelMergeMatchesSequential(t *testing.T) {
	withProcs(t, 4)
	src := prng.NewXoshiro256(11)
	shapes := [][2]int{{0, 0}, {1, 0}, {0, 5}, {100, 100}, {10000, 10000},
		{20000, 3}, {3, 20000}, {8192, 8192}}
	for _, sh := range shapes {
		a := make([]uint64, sh[0])
		b := make([]uint64, sh[1])
		for i := range a {
			a[i] = prng.Uint64n(src, 1000) // duplicates across runs
		}
		for i := range b {
			b[i] = prng.Uint64n(src, 1000)
		}
		sortutil.Sort(a, lessU64)
		sortutil.Sort(b, lessU64)
		want := make([]uint64, len(a)+len(b))
		sortutil.MergeInto(want, a, b, lessU64)
		for _, threads := range []int{1, 3, 8} {
			got := make([]uint64, len(a)+len(b))
			parallelMerge(got, a, b, lessU64, threads)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shape %v threads=%d: mismatch at %d", sh, threads, i)
				}
			}
		}
	}
}

// TestParallelMergeStable: with duplicate keys, segmented co-rank merging
// must preserve the same left-run-first tie order as the sequential kernel.
func TestParallelMergeStable(t *testing.T) {
	withProcs(t, 4)
	n := 30000
	a := make([]rec, n)
	b := make([]rec, n)
	for i := range a {
		a[i] = rec{k: i / 100, tag: i}     // run a: tags 0..n
		b[i] = rec{k: i / 100, tag: n + i} // run b: tags n..2n, same keys
	}
	less := func(x, y rec) bool { return x.k < y.k }
	got := make([]rec, 2*n)
	parallelMerge(got, a, b, less, 8)
	want := make([]rec, 2*n)
	sortutil.MergeInto(want, a, b, less)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie order diverges from sequential merge at %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestParallelTaskMergeSortScratchSharedArena(t *testing.T) {
	withProcs(t, 4)
	scratch := make([]uint64, 0)
	for round := 0; round < 5; round++ {
		n := 1000 + round*7777
		if cap(scratch) < n {
			scratch = make([]uint64, n)
		}
		a := randomData(uint64(round)+77, n, 500) // duplicate-heavy
		want := append([]uint64(nil), a...)
		sortutil.Sort(want, lessU64)
		ParallelTaskMergeSortScratch(a, lessU64, 3, scratch[:n])
		for i := range a {
			if a[i] != want[i] {
				t.Fatalf("round %d: mismatch at %d with reused scratch", round, i)
			}
		}
	}
}

// TestParallelMergeKBinarySkewedRuns: the co-rank splitting must stay
// correct when one run dwarfs the others — the §V-C case where naive
// run-per-thread assignment would leave all but one thread idle.
func TestParallelMergeKBinarySkewedRuns(t *testing.T) {
	withProcs(t, 4)
	src := prng.NewXoshiro256(4242)
	big := make([]uint64, 50000)
	for i := range big {
		big[i] = prng.Uint64n(src, 1e6)
	}
	sortutil.Sort(big, lessU64)
	runs := [][]uint64{big}
	var all []uint64
	all = append(all, big...)
	for r := 0; r < 6; r++ {
		small := make([]uint64, 100)
		for i := range small {
			small[i] = prng.Uint64n(src, 1e6)
		}
		sortutil.Sort(small, lessU64)
		runs = append(runs, small)
		all = append(all, small...)
	}
	sortutil.Sort(all, lessU64)
	for _, threads := range []int{1, 3, 8} {
		got := ParallelMergeKBinary(runs, lessU64, threads)
		if len(got) != len(all) {
			t.Fatalf("threads=%d: length %d, want %d", threads, len(got), len(all))
		}
		for i := range all {
			if got[i] != all[i] {
				t.Fatalf("threads=%d: mismatch at %d", threads, i)
			}
		}
	}
}

func TestParallelMergeKBinaryEmptyAndSingleRuns(t *testing.T) {
	if out := ParallelMergeKBinary(nil, lessU64, 4); len(out) != 0 {
		t.Errorf("nil runs produced %d elements", len(out))
	}
	if out := ParallelMergeKBinary([][]uint64{{}, {}, {}}, lessU64, 4); len(out) != 0 {
		t.Errorf("all-empty runs produced %d elements", len(out))
	}
	single := []uint64{1, 2, 3}
	out := ParallelMergeKBinary([][]uint64{nil, single, nil}, lessU64, 4)
	if len(out) != 3 || out[0] != 1 || out[2] != 3 {
		t.Errorf("single-run merge got %v", out)
	}
	// The result must be a copy, never an alias of the input run.
	if len(out) > 0 && &out[0] == &single[0] {
		t.Error("merge result aliases an input run")
	}
}
