// Package psort provides shared-memory parallel sorting and merging — the
// stand-in for the OpenMP task merge sort that Fig. 4 benchmarks against,
// plus the parallel k-way merge variants of the §VI-E study.
//
// The implementations are real fork-join algorithms over goroutines.  The
// Fig. 4 *scaling* numbers under NUMA come from the simnet cost model (see
// the bench package); these functions provide the correct algorithms and
// the real-time path.
package psort

import (
	"slices"
	"sync"

	"dhsort/internal/sortutil"
)

// ParallelFor runs f(i) for every i in [0, n) on up to workers goroutines,
// each owning a contiguous index range.  workers <= 1 (or n <= 1) runs
// inline.  It is the fork-join primitive behind the parallel Histogram
// superstep's independent per-splitter binary searches.
func ParallelFor(n, workers int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// mergeSplitCutoff is the per-worker output size below which splitting a
// pairwise merge is not worth the goroutine and co-rank overhead.
const mergeSplitCutoff = 4096

// parallelMerge merges sorted a and b into dst (len(dst) must equal
// len(a)+len(b)) stably (ties from a) using up to threads workers: the
// output is cut into equal segments whose source boundaries come from the
// sortutil.CoRank merge-path search, and every segment merges
// independently — the §V-C parallel pairwise merge.  dst must not overlap
// a or b.
func parallelMerge[T any](dst, a, b []T, less func(a, b T) bool, threads int) {
	n := len(dst)
	if threads > n/mergeSplitCutoff {
		threads = n / mergeSplitCutoff
	}
	if threads <= 1 {
		sortutil.MergeInto(dst, a, b, less)
		return
	}
	var wg sync.WaitGroup
	pi, pj := 0, 0
	for t := 1; t <= threads; t++ {
		i, j := len(a), len(b)
		if t < threads {
			i, j = sortutil.CoRank(a, b, t*n/threads, less)
		}
		lo, ai, aj, bi, bj := pi+pj, pi, i, pj, j
		wg.Add(1)
		go func() {
			defer wg.Done()
			sortutil.MergeInto(dst[lo:i+j], a[ai:aj], b[bi:bj], less)
		}()
		pi, pj = i, j
	}
	wg.Wait()
}

// ParallelTaskMergeSort sorts a in the OpenMP-task style: the array is cut
// into `threads` chunks sorted concurrently, then merged with a pairwise
// tree whose merges also run concurrently.  The sort is not stable.
func ParallelTaskMergeSort[T any](a []T, less func(a, b T) bool, threads int) {
	ParallelTaskMergeSortScratch(a, less, threads, nil)
}

// ParallelTaskMergeSortScratch is ParallelTaskMergeSort drawing its merge
// buffer from scratch when it is large enough (len >= len(a)); the merge
// rounds then ping-pong between a and the buffer with no further
// allocation, unlike the run-slice tree that previously allocated every
// intermediate run plus a final full-array copy.
func ParallelTaskMergeSortScratch[T any](a []T, less func(a, b T) bool, threads int, scratch []T) {
	if threads < 1 {
		threads = 1
	}
	n := len(a)
	if n < 2 {
		return
	}
	bounds := chunkBounds(n, threads)
	ParallelFor(len(bounds)-1, threads, func(i int) {
		sortutil.Sort(a[bounds[i]:bounds[i+1]], less)
	})
	if len(bounds) <= 2 {
		return
	}
	if len(scratch) < n {
		scratch = make([]T, n)
	}
	res := mergeRuns(a, scratch[:n], bounds, less, threads)
	if &res[0] != &a[0] {
		copy(a, res)
	}
}

// chunkBounds cuts [0, n) into at most chunks non-empty contiguous ranges,
// returning the len+1 boundary offsets.
func chunkBounds(n, chunks int) []int {
	b := make([]int, 1, chunks+1)
	for i := 1; i <= chunks; i++ {
		if c := i * n / chunks; c > b[len(b)-1] {
			b = append(b, c)
		}
	}
	return b
}

// mergeRuns merges the adjacent sorted runs of src delimited by bounds
// (run i spans src[bounds[i]:bounds[i+1]]) down to a single run,
// ping-ponging between src and dst.  Each round runs its pairwise merges
// concurrently AND gives every merge a thread share proportional to its
// output size, so the final rounds — two huge runs — still keep all
// workers busy via parallelMerge's co-rank splitting.  Returns whichever
// buffer holds the final run.
func mergeRuns[T any](src, dst []T, bounds []int, less func(a, b T) bool, threads int) []T {
	n := len(src)
	for len(bounds) > 2 {
		nxt := make([]int, 1, (len(bounds)+2)/2)
		var wg sync.WaitGroup
		for i := 0; i+2 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[i+2]
			share := 1
			if n > 0 {
				share = 1 + threads*(hi-lo)/n
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				parallelMerge(dst[lo:hi], src[lo:mid], src[mid:hi], less, share)
			}()
			nxt = append(nxt, hi)
		}
		if len(bounds)%2 == 0 {
			// Odd run count: the last run has no partner this round.
			lo, hi := bounds[len(bounds)-2], bounds[len(bounds)-1]
			copy(dst[lo:hi], src[lo:hi])
			nxt = append(nxt, hi)
		}
		wg.Wait()
		src, dst = dst, src
		bounds = nxt
	}
	return src
}

// ParallelMergeKBinary merges k sorted runs with a binary merge tree —
// "all pairwise merges can be performed in parallel" (§V-C).  The thread
// budget is spread across a round's merges in proportion to their output
// sizes, so the last rounds (few, huge merges) split internally by co-rank
// instead of leaving threads-1 workers idle.  The input runs are not
// modified.
func ParallelMergeKBinary[T any](runs [][]T, less func(a, b T) bool, threads int) []T {
	if threads < 1 {
		threads = 1
	}
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	src := make([]T, n)
	bounds := make([]int, 1, len(runs)+1)
	off := 0
	for _, r := range runs {
		off += copy(src[off:], r)
		if off > bounds[len(bounds)-1] {
			bounds = append(bounds, off)
		}
	}
	if len(bounds) <= 2 {
		return src
	}
	return mergeRuns(src, make([]T, n), bounds, less, threads)
}

// MergeAlgorithm names one of the §VI-E k-way merge strategies.
type MergeAlgorithm string

// The merge algorithms compared in §VI-E.
const (
	// BinaryTreeMerge is the parallel binary merge tree ("our own k-way
	// binary merge using OpenMP tasks").
	BinaryTreeMerge MergeAlgorithm = "binary-tree"
	// TournamentMerge is the loser-tree merge ("GNU Parallel provides a
	// multi-threaded k-way merge routine using tournament trees";
	// sequential here — its cache behaviour is the point).
	TournamentMerge MergeAlgorithm = "tournament"
	// ResortMerge ignores run boundaries and re-sorts ("processing many
	// merge tasks in parallel with another parallel sort clearly
	// outperforms merging").
	ResortMerge MergeAlgorithm = "resort"
)

// MergeAlgorithms lists the §VI-E contenders.
var MergeAlgorithms = []MergeAlgorithm{BinaryTreeMerge, TournamentMerge, ResortMerge}

// MergeK dispatches to the chosen algorithm with the given worker budget.
func MergeK[T any](alg MergeAlgorithm, runs [][]T, less func(a, b T) bool, threads int) []T {
	switch alg {
	case TournamentMerge:
		return sortutil.MergeKLoser(runs, less)
	case ResortMerge:
		out := slices.Concat(runs...)
		ParallelTaskMergeSort(out, less, threads)
		return out
	default:
		return ParallelMergeKBinary(runs, less, threads)
	}
}
