package sortutil

// CoRank returns the split (i, j) with i+j == k such that the first k
// elements of the stable merge of sorted a and b (ties taken from a, as
// MergeInto produces) are exactly the merge of a[:i] and b[:j].  It is the
// merge-path binary search that lets a pairwise merge be cut into
// independent equal-size output segments (§V-C "all pairwise merges can be
// performed in parallel").  O(log min(k, len(a))) comparisons.
func CoRank[T any](a, b []T, k int, less func(a, b T) bool) (int, int) {
	lo, hi := k-len(b), k
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	for {
		i := int(uint(lo+hi) >> 1)
		j := k - i
		switch {
		case i > 0 && j < len(b) && less(b[j], a[i-1]):
			// a[i-1] would be emitted after b[j]: i is too large.
			hi = i - 1
		case j > 0 && i < len(a) && !less(b[j-1], a[i]):
			// b[j-1] would be emitted after a[i] (ties go to a): i too small.
			lo = i + 1
		default:
			return i, j
		}
	}
}

// loserTree is a tournament tree over k sorted runs (§V-C; Knuth's
// replacement-selection structure).  Each Next pops the global minimum in
// O(log k) comparisons.  Unlike the binary merge tree it needs all runs up
// front, but touches each element only once.
type loserTree[T any] struct {
	less  func(a, b T) bool
	runs  [][]T // remaining suffix of each run
	tree  []int // internal nodes: index of the loser run
	top   int   // current overall winner run
	k     int
	count int // total remaining elements
}

// newLoserTree builds a tournament tree over the given sorted runs.
func newLoserTree[T any](runs [][]T, less func(a, b T) bool) *loserTree[T] {
	k := len(runs)
	lt := &loserTree[T]{less: less, runs: make([][]T, k), tree: make([]int, k), k: k}
	for i, r := range runs {
		lt.runs[i] = r
		lt.count += len(r)
	}
	lt.build()
	return lt
}

// exhausted reports whether run i is empty.
func (lt *loserTree[T]) exhausted(i int) bool { return len(lt.runs[i]) == 0 }

// beats reports whether run a's head should win against run b's head
// (exhausted runs always lose; ties break towards the lower run index,
// making the merge stable).
func (lt *loserTree[T]) beats(a, b int) bool {
	switch {
	case lt.exhausted(a):
		return false
	case lt.exhausted(b):
		return true
	case lt.less(lt.runs[a][0], lt.runs[b][0]):
		return true
	case lt.less(lt.runs[b][0], lt.runs[a][0]):
		return false
	}
	return a < b
}

// build plays the initial tournament.
func (lt *loserTree[T]) build() {
	if lt.k == 0 {
		lt.top = -1
		return
	}
	// Play every leaf up the tree; standard loser-tree initialization.
	for i := range lt.tree {
		lt.tree[i] = -1
	}
	for i := 0; i < lt.k; i++ {
		lt.replay(i)
	}
}

// replay pushes run w from its leaf towards the root, recording losers.
func (lt *loserTree[T]) replay(w int) {
	node := (w + lt.k) / 2
	for node > 0 {
		if lt.tree[node] == -1 {
			lt.tree[node] = w
			return // first arrival waits for its sibling
		}
		if lt.beats(lt.tree[node], w) {
			w, lt.tree[node] = lt.tree[node], w
		}
		node /= 2
	}
	lt.top = w
}

// Len returns the number of elements remaining.
func (lt *loserTree[T]) Len() int { return lt.count }

// Next removes and returns the smallest remaining element.  It must not be
// called when Len() == 0.
func (lt *loserTree[T]) Next() T {
	w := lt.top
	v := lt.runs[w][0]
	lt.runs[w] = lt.runs[w][1:]
	lt.count--
	// Replay from the winner's leaf to the root.
	node := (w + lt.k) / 2
	for node > 0 {
		if lt.beats(lt.tree[node], w) {
			w, lt.tree[node] = lt.tree[node], w
		}
		node /= 2
	}
	lt.top = w
	return v
}

// MergeKLoser merges k sorted chunks using a tournament (loser) tree.
func MergeKLoser[T any](chunks [][]T, less func(a, b T) bool) []T {
	lt := newLoserTree(chunks, less)
	out := make([]T, 0, lt.Len())
	for lt.Len() > 0 {
		out = append(out, lt.Next())
	}
	return out
}
