package bench

import (
	"fmt"
	"runtime"
	"slices"
	"text/tabwriter"
	"time"

	"dhsort/internal/core"
	"dhsort/internal/keys"
	"dhsort/internal/prng"
	"dhsort/internal/psort"
	"dhsort/internal/sortutil"
)

// LocalKernels is the intra-rank kernel ablation behind the Local Sort
// superstep: the same block of keys is sorted by the comparison introsort,
// the LSD radix fast path, and the fork-join task merge sort over a thread
// budget.  It is the microbenchmark companion to Fig. 4 (§VI-D): the paper's
// shared-memory competitors win or lose on exactly these intra-node
// kernel costs, and the radix path is what makes the one-move distributed
// sort competitive inside a single NUMA domain.
//
// Measurements are real wall-clock times on this machine; thread speedups
// require GOMAXPROCS > 1 to show.
func LocalKernels(o Options) error {
	sizes := []int{1 << 16, 1 << 20}
	if o.Full {
		sizes = append(sizes, 1<<22)
	}
	fmt.Fprintf(o.Out, "ablation — local sort kernels (real measurements, GOMAXPROCS=%d)\n\n", runtime.GOMAXPROCS(0))
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "keys\tintrosort ns/elem\tradix ns/elem\ttask-merge t=1\tt=2\tt=4\tbest\n")

	for _, n := range sizes {
		src := prng.NewXoshiro256(o.Seed + uint64(n))
		orig := make([]uint64, n)
		for i := range orig {
			orig[i] = src.Uint64()
		}
		work := make([]uint64, n)
		measure := func(sort func([]uint64)) float64 {
			copy(work, orig)
			start := time.Now()
			sort(work)
			el := time.Since(start)
			if !sortutil.IsSorted(work, keys.Uint64{}.Less) {
				panic("bench: local kernel produced an unsorted result")
			}
			return float64(el.Nanoseconds()) / float64(n)
		}

		intro := measure(func(a []uint64) { sortutil.Sort(a, keys.Uint64{}.Less) })
		radix := measure(sortutil.RadixSortUint64)
		var tm [3]float64
		for i, threads := range []int{1, 2, 4} {
			tm[i] = measure(func(a []uint64) { psort.ParallelTaskMergeSort(a, keys.Uint64{}.Less, threads) })
		}
		ns := []float64{intro, radix, tm[0], tm[1], tm[2]}
		best := []string{"introsort", "radix", "task-merge", "task-merge t=2", "task-merge t=4"}[slices.Index(ns, slices.Min(ns))]
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%s\n", n, intro, radix, tm[0], tm[1], tm[2], best)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintf(o.Out, "\nkernel dispatch (core.LocalSort, threads=%d):\n", o.threads())
	tw = tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "key type\tkernel\tvarying digits (modelled radix passes)\n")
	n := 1 << 12
	src := prng.NewXoshiro256(o.Seed + 31)
	u := make([]uint64, n)
	f := make([]float64, n)
	s := make([]string, n)
	for i := range u {
		v := src.Uint64()
		u[i] = v
		f[i] = float64(int64(v)) / 3.7
		s[i] = fmt.Sprintf("%016x", v)
	}
	report := func(name, kernel string, passes int) {
		fmt.Fprintf(tw, "%s\t%s\t%d\n", name, kernel, passes)
	}
	k, passes := core.LocalSortKernel(u, keys.Uint64{}, "", o.threads(), nil)
	report("uint64", k, passes)
	k, passes = core.LocalSortKernel(f, keys.Float64{}, "", o.threads(), nil)
	report("float64", k, passes)
	k, passes = core.LocalSortKernel(keys.MakeUnique(u, 3), keys.NewTripleOps[uint64](keys.Uint64{}), "", o.threads(), nil)
	report("triple[uint64]", k, passes)
	k, passes = core.LocalSortKernel(s, keys.String{}, "", o.threads(), nil)
	report("string", k, passes)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "\nexpected: radix wins on fixed-width keys (the modelled pass count — the\n")
	fmt.Fprintf(o.Out, "digits on which the keys differ — drops further when the key span leaves\n")
	fmt.Fprintf(o.Out, "high digits constant; the host kernel may execute fewer); variable-width\n")
	fmt.Fprintf(o.Out, "keys fall back to comparison sorting, fork-join when threads > 1.\n")
	return nil
}
