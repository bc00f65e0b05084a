// Package selection implements the order-statistic kernels of §IV: the
// classic quickselect, the deterministic median-of-medians, and the
// weighted median of Definition 2 that drives the distributed selection
// (Algorithm 1).
package selection

// Select returns the k-th smallest element of a (0-based) in expected O(n)
// time.  a is permuted: on return a[k] holds the result with smaller
// elements before it and larger after it (as std::nth_element).
// It panics if k is out of range.
//
// This is an introselect: quickselect with median-of-three pivots that falls
// back to the deterministic median-of-medians pivot when progress degrades,
// so the worst case is O(n) as shown by Blum et al. [21].
func Select[T any](a []T, k int, less func(a, b T) bool) T {
	if k < 0 || k >= len(a) {
		panic("selection: k out of range")
	}
	lo, hi := 0, len(a) // half-open working range
	bad := 0            // consecutive unbalanced partitions
	for {
		n := hi - lo
		if n <= 8 {
			insertionSort(a[lo:hi], less)
			return a[k]
		}
		var p int
		if bad >= 2 {
			// Degenerating: pay for a guaranteed-good pivot.
			p = lo + medianOfMediansIndex(a[lo:hi], less)
			bad = 0
		} else {
			p = medianOfThreeIndex(a, less, lo, lo+n/2, hi-1)
		}
		lt, gt := partition3(a, lo, hi, p, less)
		if k >= lt && k < gt {
			return a[k] // within the equal-to-pivot block
		}
		// Track progress quality for the introspection fallback.
		if lt-lo < n/8 || hi-gt < n/8 {
			bad++
		} else {
			bad = 0
		}
		if k < lt {
			hi = lt
		} else {
			lo = gt
		}
	}
}

// partition3 rearranges a[lo:hi) around the pivot at index p into
// [< pivot | == pivot | > pivot] and returns the bounds (lt, gt) of the
// equal block.  The three-way split keeps selection linear on inputs with
// heavy duplication (all comparisons against the pivot — the dominant cost
// the paper's complexity analysis counts).
func partition3[T any](a []T, lo, hi, p int, less func(a, b T) bool) (int, int) {
	pivot := a[p]
	lt, i, gt := lo, lo, hi
	for i < gt {
		switch {
		case less(a[i], pivot):
			a[i], a[lt] = a[lt], a[i]
			lt++
			i++
		case less(pivot, a[i]):
			gt--
			a[i], a[gt] = a[gt], a[i]
		default:
			i++
		}
	}
	return lt, gt
}

func medianOfThreeIndex[T any](a []T, less func(a, b T) bool, i, j, k int) int {
	if less(a[j], a[i]) {
		i, j = j, i
	}
	if less(a[k], a[j]) {
		if less(a[k], a[i]) {
			return i
		}
		return k
	}
	return j
}

func insertionSort[T any](a []T, less func(a, b T) bool) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && less(a[j], a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// MedianOfMedians returns the k-th smallest element of a with a worst-case
// O(n) bound (Blum–Floyd–Pratt–Rivest–Tarjan [21]).  a is permuted.
func MedianOfMedians[T any](a []T, k int, less func(a, b T) bool) T {
	if k < 0 || k >= len(a) {
		panic("selection: k out of range")
	}
	lo, hi := 0, len(a)
	for {
		if hi-lo <= 8 {
			insertionSort(a[lo:hi], less)
			return a[k]
		}
		p := lo + medianOfMediansIndex(a[lo:hi], less)
		lt, gt := partition3(a, lo, hi, p, less)
		switch {
		case k >= lt && k < gt:
			return a[k]
		case k < lt:
			hi = lt
		default:
			lo = gt
		}
	}
}

// medianOfMediansIndex returns the index (relative to a) of a pivot
// guaranteed to have rank between 30% and 70% of len(a): the median of the
// medians of groups of five.
func medianOfMediansIndex[T any](a []T, less func(a, b T) bool) int {
	n := len(a)
	// Compute each group-of-5 median and swap it to the slice prefix.
	m := 0
	for i := 0; i < n; i += 5 {
		end := i + 5
		if end > n {
			end = n
		}
		insertionSort(a[i:end], less)
		mid := i + (end-i)/2
		a[m], a[mid] = a[mid], a[m]
		m++
	}
	// Recursively select the median of the m group medians.
	MedianOfMedians(a[:m], m/2, less)
	return m / 2
}
