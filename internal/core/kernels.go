package core

import (
	"fmt"
	"time"

	"dhsort/internal/keys"
	"dhsort/internal/psort"
	"dhsort/internal/simnet"
	"dhsort/internal/sortutil"
)

// Local Sort kernel names, recorded per run in the metrics document
// (Record.LocalSortKernel).
const (
	// KernelRadix is the LSD radix fast path for keys with a fixed-width
	// uint64 image (keys.ImageOf).
	KernelRadix = "radix"
	// KernelTaskMerge is the fork-join task merge sort used for
	// comparison-only keys when the thread budget exceeds one.
	KernelTaskMerge = "task-merge"
	// KernelIntrosort is the sequential comparison sort fallback.
	KernelIntrosort = "introsort"
)

// LocalSortKernel sorts a in place with the fastest applicable kernel — the
// dispatch at the heart of the Local Sort superstep (§VI-B): LSD radix when
// ops' keys have a fixed-width image (keys.ImageOf), the fork-join task
// merge sort when only comparisons are available but threads > 1, and the
// sequential introsort otherwise.  force overrides the dispatch (see
// Config.Kernel; empty selects it); a forced radix kernel on keys without a
// fixed-width image falls back to the comparison kernels, so the returned
// name is always the kernel that actually ran.  Scratch comes from ar (nil
// means allocate).  It returns the kernel name for the metrics record and,
// for the radix kernel, the number of digits on which the keys differ — the
// scatter passes of the plain LSD sort, which is what simnet's
// RadixSortCost prices; the kernel may execute fewer (sortutil/radix.go).
// 0 for the other kernels.
func LocalSortKernel[K any](a []K, ops keys.Ops[K], force string, threads int, ar *sortutil.Arena[K]) (kernel string, radixPasses int) {
	return LocalSortRuns(a, nil, ops, force, threads, ar)
}

// LocalSortRuns is the out-of-place form of LocalSortKernel: it sorts the
// elements of runs — which it only reads — into dst, which must hold exactly
// their total length and must not overlap them.  Local Sort hands it the
// caller's input, Local Merge the received blocks where the exchange left
// them; the radix kernel gathers in its first pass, so neither pays a copy in
// front of the sort.  Nil runs sorts dst in place.
func LocalSortRuns[K any](dst []K, runs [][]K, ops keys.Ops[K], force string, threads int, ar *sortutil.Arena[K]) (kernel string, radixPasses int) {
	if runs != nil {
		total := 0
		for _, r := range runs {
			total += len(r)
		}
		if total != len(dst) {
			panic(fmt.Sprintf("core: LocalSortRuns: runs hold %d elements, dst %d", total, len(dst)))
		}
	}
	if im := keys.ImageOf(ops); im.Width > 0 && (force == "" || force == KernelRadix) {
		return KernelRadix, radixSortImage(dst, runs, im, ar)
	}
	// The comparison kernels sort in place.
	off := 0
	for _, r := range runs {
		off += copy(dst[off:], r)
	}
	if (threads > 1 && force == "") || force == KernelTaskMerge {
		psort.ParallelTaskMergeSortScratch(dst, ops.Less, threads, ar.Vals(len(dst)))
		return KernelTaskMerge, 0
	}
	sortutil.Sort(dst, ops.Less)
	return KernelIntrosort, 0
}

// radixSortImage runs the LSD kernel on the image im.  Keys that are a
// function of their image (a codec: every scalar type) sort as images only.
// Records that carry more than their key move with a cached image; those
// with a uniqueness suffix sort by the suffix first and the primary image
// second: both stages are stable, so the composition orders by (primary,
// suffix) — the §V-A transformed comparison.
func radixSortImage[K any](dst []K, runs [][]K, im keys.Image[K], ar *sortutil.Arena[K]) int {
	switch {
	case im.Self:
		return sortutil.RadixSortImages(any(dst).([]uint64), any(runs).([][]uint64), im.Width, any(ar).(*sortutil.Arena[uint64]))
	case im.Codec != nil:
		return sortutil.RadixSortKeys(dst, runs, im.Width, im.Codec, ar)
	}
	passes := 0
	if im.Suffix != nil {
		passes += sortutil.RadixSortFunc(dst, runs, im.Suffix, im.SuffixWidth, ar)
		runs = nil // the primary stage re-sorts dst
	}
	return passes + sortutil.RadixSortFunc(dst, runs, im.Of, im.Width, ar)
}

// LocalSortCost prices the chosen kernel on the virtual clock for n
// (virtually scaled) keys.
func LocalSortCost(m *simnet.CostModel, kernel string, n, radixPasses, threads int) time.Duration {
	switch kernel {
	case KernelRadix:
		return m.RadixSortCost(n, radixPasses)
	case KernelTaskMerge:
		return m.Threaded(m.SortCost(n), threads)
	}
	return m.SortCost(n)
}

// searchParallelCutoff is the partition size below which per-splitter
// binary searches are not worth forking for.
const searchParallelCutoff = 4096

// searchWorkers returns the worker count for `tasks` independent binary
// searches over an n-element sorted partition — the Histogram superstep's
// parallelism (the searches are independent reads).  The choice feeds the
// cost model, so it depends only on the configuration and input size.
func searchWorkers(threads, tasks, n int) int {
	if threads <= 1 || tasks < 2 || n < searchParallelCutoff {
		return 1
	}
	if threads > tasks {
		return tasks
	}
	return threads
}
