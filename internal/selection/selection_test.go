package selection

import (
	"sort"
	"testing"
	"testing/quick"

	"dhsort/internal/prng"
)

func lessInt(a, b int) bool { return a < b }

func randInts(seed uint64, n int, span uint64) []int {
	src := prng.NewXoshiro256(seed)
	a := make([]int, n)
	for i := range a {
		if span == 0 {
			a[i] = int(src.Uint64() >> 1)
		} else {
			a[i] = int(prng.Uint64n(src, span))
		}
	}
	return a
}

// oracle returns the k-th smallest by sorting a copy.
func oracle(a []int, k int) int {
	b := append([]int(nil), a...)
	sort.Ints(b)
	return b[k]
}

func testSelector(t *testing.T, name string, sel func(a []int, k int) int) {
	t.Helper()
	for _, n := range []int{1, 2, 3, 7, 8, 9, 100, 1000, 5000} {
		for _, span := range []uint64{0, 1, 3, 50} {
			a := randInts(uint64(n)*31+span, n, span)
			for _, k := range []int{0, n / 4, n / 2, n - 1} {
				want := oracle(a, k)
				got := sel(append([]int(nil), a...), k)
				if got != want {
					t.Fatalf("%s: n=%d span=%d k=%d: got %d, want %d", name, n, span, k, got, want)
				}
			}
		}
	}
}

func TestSelect(t *testing.T) {
	testSelector(t, "Select", func(a []int, k int) int { return Select(a, k, lessInt) })
}

func TestMedianOfMedians(t *testing.T) {
	testSelector(t, "MedianOfMedians", func(a []int, k int) int { return MedianOfMedians(a, k, lessInt) })
}

func TestSelectPartitionsAroundK(t *testing.T) {
	a := randInts(5, 1000, 0)
	k := 400
	v := Select(a, k, lessInt)
	if a[k] != v {
		t.Fatal("a[k] must hold the selected element")
	}
	for i := 0; i < k; i++ {
		if a[i] > v {
			t.Fatalf("element %d (= %d) left of k exceeds a[k] = %d", i, a[i], v)
		}
	}
	for i := k + 1; i < len(a); i++ {
		if a[i] < v {
			t.Fatalf("element %d (= %d) right of k below a[k] = %d", i, a[i], v)
		}
	}
}

func TestSelectOutOfRangePanics(t *testing.T) {
	for _, k := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: expected panic", k)
				}
			}()
			Select([]int{1, 2, 3}, k, lessInt)
		}()
	}
}

func TestSelectAdversarial(t *testing.T) {
	// Sorted, reversed and all-equal inputs exercise the introspection
	// fallback and equal-key handling.
	n := 4000
	sorted := make([]int, n)
	rev := make([]int, n)
	eq := make([]int, n)
	for i := range sorted {
		sorted[i] = i
		rev[i] = n - i
	}
	for name, a := range map[string][]int{"sorted": sorted, "reversed": rev, "equal": eq} {
		b := append([]int(nil), a...)
		k := n / 3
		want := oracle(b, k)
		if got := Select(b, k, lessInt); got != want {
			t.Errorf("%s: got %d want %d", name, got, want)
		}
	}
}

func TestSelectQuick(t *testing.T) {
	f := func(a []int, kRaw uint16) bool {
		if len(a) == 0 {
			return true
		}
		k := int(kRaw) % len(a)
		want := oracle(a, k)
		return Select(append([]int(nil), a...), k, lessInt) == want &&
			MedianOfMedians(append([]int(nil), a...), k, lessInt) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedMedianBasic(t *testing.T) {
	items := []Weighted[int]{{1, 0.1}, {2, 0.2}, {3, 0.3}, {4, 0.4}}
	m := WeightedMedian(append([]Weighted[int](nil), items...), lessInt)
	if !CheckWeightedMedian(items, m, lessInt) {
		t.Fatalf("median %d violates Definition 2", m)
	}
	// below(3) = 0.3 < 0.5, above(3) = 0.4 <= 0.5 -> 3 is the weighted median.
	if m != 3 {
		t.Fatalf("got %d, want 3", m)
	}
}

func TestWeightedMedianUniformWeights(t *testing.T) {
	// With equal weights the weighted median is an ordinary median.
	for _, n := range []int{1, 2, 3, 10, 101, 1000} {
		vals := randInts(uint64(n), n, 0)
		items := make([]Weighted[int], n)
		for i, v := range vals {
			items[i] = Weighted[int]{v, 1}
		}
		snapshot := append([]Weighted[int](nil), items...)
		m := WeightedMedian(items, lessInt)
		if !CheckWeightedMedian(snapshot, m, lessInt) {
			t.Fatalf("n=%d: median %d violates Definition 2", n, m)
		}
	}
}

func TestWeightedMedianDominantWeight(t *testing.T) {
	items := []Weighted[int]{{5, 100}, {1, 1}, {9, 1}, {3, 1}}
	if m := WeightedMedian(append([]Weighted[int](nil), items...), lessInt); m != 5 {
		t.Fatalf("dominant-weight element must be the median, got %d", m)
	}
}

func TestWeightedMedianDuplicateValues(t *testing.T) {
	items := []Weighted[int]{{2, 0.25}, {2, 0.25}, {2, 0.25}, {1, 0.15}, {7, 0.10}}
	snapshot := append([]Weighted[int](nil), items...)
	m := WeightedMedian(items, lessInt)
	if m != 2 {
		t.Fatalf("got %d, want 2", m)
	}
	if !CheckWeightedMedian(snapshot, m, lessInt) {
		t.Fatal("Definition 2 violated")
	}
}

func TestWeightedMedianZeroWeightsAmongPositive(t *testing.T) {
	items := []Weighted[int]{{1, 0}, {2, 1}, {3, 0}}
	if m := WeightedMedian(items, lessInt); m != 2 {
		t.Fatalf("got %d, want 2", m)
	}
}

func TestWeightedMedianPanics(t *testing.T) {
	for name, items := range map[string][]Weighted[int]{
		"empty":    {},
		"allzero":  {{1, 0}, {2, 0}},
		"negative": {{1, -1}, {2, 3}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			WeightedMedian(items, lessInt)
		}()
	}
}

func TestWeightedMedianQuick(t *testing.T) {
	f := func(vals []int8, weights []uint8) bool {
		n := len(vals)
		if len(weights) < n {
			n = len(weights)
		}
		if n == 0 {
			return true
		}
		items := make([]Weighted[int], 0, n)
		var total float64
		for i := 0; i < n; i++ {
			w := float64(weights[i])
			items = append(items, Weighted[int]{int(vals[i]), w})
			total += w
		}
		if total == 0 {
			return true
		}
		snapshot := append([]Weighted[int](nil), items...)
		m := WeightedMedian(items, lessInt)
		return CheckWeightedMedian(snapshot, m, lessInt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
