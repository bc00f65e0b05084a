package sortutil

import (
	"sort"
	"testing"
	"testing/quick"

	"dhsort/internal/prng"
)

// randomRuns builds k sorted runs with the given total size.
func randomRuns(seed uint64, k, total int) [][]uint64 {
	src := prng.NewXoshiro256(seed)
	runs := make([][]uint64, k)
	for i := range runs {
		n := total / k
		if i < total%k {
			n++
		}
		r := make([]uint64, n)
		for j := range r {
			r[j] = prng.Uint64n(src, 1000)
		}
		Sort(r, lessU64)
		runs[i] = r
	}
	return runs
}

func flatSorted(runs [][]uint64) []uint64 {
	var all []uint64
	for _, r := range runs {
		all = append(all, r...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

func checkMerge(t *testing.T, name string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: mismatch at %d: %d vs %d", name, i, got[i], want[i])
		}
	}
}

func TestMergeTwo(t *testing.T) {
	a := []uint64{1, 3, 5}
	b := []uint64{2, 3, 4, 9}
	got := make([]uint64, len(a)+len(b))
	MergeInto(got, a, b, lessU64)
	checkMerge(t, "merge", got, []uint64{1, 2, 3, 3, 4, 5, 9})
}

func TestMergeEmpty(t *testing.T) {
	got := make([]uint64, 1)
	if MergeInto(got, nil, []uint64{1}, lessU64); got[0] != 1 {
		t.Fatal("merge with empty left failed")
	}
	if MergeInto(got, []uint64{2}, nil, lessU64); got[0] != 2 {
		t.Fatal("merge with empty right failed")
	}
	MergeInto[uint64](nil, nil, nil, lessU64) // must not touch dst
}

func TestMergeKVariants(t *testing.T) {
	for _, k := range []int{0, 1, 2, 3, 7, 16, 33} {
		for _, total := range []int{0, 1, 10, 1000} {
			if k == 0 && total > 0 {
				continue
			}
			var runs [][]uint64
			if k > 0 {
				runs = randomRuns(uint64(k*1000+total), k, total)
			}
			want := flatSorted(runs)
			checkMerge(t, "loser", MergeKLoser(runs, lessU64), want)
		}
	}
}

func TestMergeKWithEmptyRuns(t *testing.T) {
	runs := [][]uint64{{}, {5, 6}, {}, {1}, {}, {}, {2, 7}, {}}
	want := []uint64{1, 2, 5, 6, 7}
	checkMerge(t, "loser", MergeKLoser(runs, lessU64), want)
}

func TestLoserTreeIncremental(t *testing.T) {
	runs := randomRuns(3, 5, 500)
	want := flatSorted(runs)
	lt := newLoserTree(runs, lessU64)
	if lt.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", lt.Len(), len(want))
	}
	for i, w := range want {
		if got := lt.Next(); got != w {
			t.Fatalf("element %d = %d, want %d", i, got, w)
		}
	}
	if lt.Len() != 0 {
		t.Fatal("tree not drained")
	}
}

func TestLoserTreeStable(t *testing.T) {
	// Ties must resolve to the lower run index.
	runs := [][]pair{
		{{1, 100}, {2, 101}},
		{{1, 200}, {2, 201}},
	}
	lt := newLoserTree(runs, func(a, b pair) bool { return a.k < b.k })
	order := []int{100, 200, 101, 201}
	for i, w := range order {
		if got := lt.Next(); got.tag != w {
			t.Fatalf("tie-break order wrong at %d: got tag %d, want %d", i, got.tag, w)
		}
	}
}

func TestMergeKQuick(t *testing.T) {
	f := func(seed uint64, kRaw, totalRaw uint16) bool {
		k := int(kRaw%12) + 1
		total := int(totalRaw % 2000)
		runs := randomRuns(seed, k, total)
		want := flatSorted(runs)
		got := MergeKLoser(runs, lessU64)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeDoesNotModifyInputs(t *testing.T) {
	runs := randomRuns(9, 4, 100)
	snapshot := make([][]uint64, len(runs))
	for i, r := range runs {
		snapshot[i] = append([]uint64(nil), r...)
	}
	MergeKLoser(runs, lessU64)
	for i, r := range runs {
		for j := range r {
			if r[j] != snapshot[i][j] {
				t.Fatalf("input run %d modified at %d", i, j)
			}
		}
	}
}
