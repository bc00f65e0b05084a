package psort

import (
	"sort"
	"testing"
	"testing/quick"

	"dhsort/internal/prng"
	"dhsort/internal/sortutil"
)

func lessU64(a, b uint64) bool { return a < b }

func randomData(seed uint64, n int, span uint64) []uint64 {
	src := prng.NewXoshiro256(seed)
	a := make([]uint64, n)
	for i := range a {
		a[i] = prng.Uint64n(src, span)
	}
	return a
}

type rec struct{ k, tag int }

func TestParallelTaskMergeSort(t *testing.T) {
	for _, n := range []int{0, 1, 3, 1000, 30000} {
		for _, threads := range []int{1, 3, 8} {
			a := randomData(uint64(n)*7+uint64(threads), n, 1e9)
			want := append([]uint64(nil), a...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			ParallelTaskMergeSort(a, lessU64, threads)
			for i := range a {
				if a[i] != want[i] {
					t.Fatalf("n=%d threads=%d: mismatch at %d", n, threads, i)
				}
			}
		}
	}
}

func TestParallelMergeKBinary(t *testing.T) {
	src := prng.NewXoshiro256(9)
	for _, k := range []int{0, 1, 2, 5, 16, 31} {
		runs := make([][]uint64, k)
		var all []uint64
		for i := range runs {
			n := int(prng.Uint64n(src, 500))
			r := randomData(uint64(k*100+i), n, 1e6)
			sortutil.Sort(r, lessU64)
			runs[i] = r
			all = append(all, r...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		got := ParallelMergeKBinary(runs, lessU64, 4)
		if len(got) != len(all) {
			t.Fatalf("k=%d: length %d want %d", k, len(got), len(all))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("k=%d: mismatch at %d", k, i)
			}
		}
	}
}

func TestMergeKAllAlgorithms(t *testing.T) {
	for _, alg := range MergeAlgorithms {
		runs := make([][]uint64, 9)
		var all []uint64
		for i := range runs {
			r := randomData(uint64(i)+77, 300, 1e6)
			sortutil.Sort(r, lessU64)
			runs[i] = r
			all = append(all, r...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		got := MergeK(alg, runs, lessU64, 4)
		if len(got) != len(all) {
			t.Fatalf("%s: length mismatch", alg)
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("%s: mismatch at %d", alg, i)
			}
		}
	}
}

func TestMergeKQuick(t *testing.T) {
	f := func(seed uint64, kRaw, threadsRaw uint8) bool {
		k := int(kRaw%8) + 1
		threads := int(threadsRaw%4) + 1
		src := prng.NewXoshiro256(seed)
		runs := make([][]uint64, k)
		var all []uint64
		for i := range runs {
			n := int(prng.Uint64n(src, 200))
			r := randomData(seed+uint64(i), n, 100)
			sortutil.Sort(r, lessU64)
			runs[i] = r
			all = append(all, r...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for _, alg := range MergeAlgorithms {
			got := MergeK(alg, runs, lessU64, threads)
			if len(got) != len(all) {
				return false
			}
			for i := range got {
				if got[i] != all[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
