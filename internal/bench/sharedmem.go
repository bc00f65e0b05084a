package bench

import (
	"fmt"
	"math"
	"text/tabwriter"
	"time"

	"dhsort/internal/core"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

// Fig. 4 (§VI-D): one SuperMUC node, 5 GB of normally distributed doubles,
// strong scaling from 7 to 28 cores across 1 to 4 NUMA domains.  dhsort
// runs for real under the NUMA-priced cost model; the Intel Parallel STL
// (TBB) and OpenMP task merge sort competitors are analytic models of the
// same machine (documented below and in DESIGN.md §1).

const (
	fig4VirtualKeys = int64(5) << 30 / 8 // 5 GB of float64 keys
	fig4CoresPerDom = 7
)

// sharedMergeSortTime models a multi-pass shared-memory merge sort (the
// TBB parallel stable sort of the Intel PSTL, or the OpenMP task variant)
// on n keys with the given thread count spread over d NUMA domains.
//
// The model follows the paper's own argument for why one-move sorting wins
// across NUMA domains (§I, §VI-D):
//
//   - compute: n·log2(n) compare-moves spread over the threads, with a
//     hyperthreading yield of 1.25 (the paper runs 2 threads/core);
//   - memory: merge levels whose runs exceed the last-level cache stream
//     the whole array (16 bytes/key read+write) from memory on every pass;
//   - NUMA: task-stealing schedulers have no domain affinity, so with d
//     domains a fraction (d-1)/d of streamed accesses cross the
//     interconnect at its lower bandwidth.
func sharedMergeSortTime(n int64, threads, domains int, m *simnet.CostModel, taskOverhead float64) time.Duration {
	if n < 2 {
		return 0
	}
	const (
		llcKeys        = 2 << 20 // runs beyond ~2M keys (16 MB) stream from memory
		localGBperDom  = 10.0    // stream bandwidth per NUMA domain, GB/s
		remoteGB       = 6.0     // effective cross-domain stream under contention, GB/s
		htYield        = 1.25    // hyperthreading throughput gain
		bytesPerForKey = 16.0    // read + write per key per pass
	)
	eff := float64(threads) * htYield / 2 // threads = 2/core: cores × yield
	compute := m.CompareNs * float64(n) * math.Log2(float64(n)) / eff * taskOverhead

	streamLevels := math.Log2(float64(n) / float64(llcKeys))
	if streamLevels < 1 {
		streamLevels = 1
	}
	// Blended streaming bandwidth: local share at d·local, remote share
	// over the shared interconnect.
	local := float64(domains) * localGBperDom
	remoteFrac := float64(domains-1) / float64(domains)
	bw := 1 / ((1-remoteFrac)/local + remoteFrac/remoteGB)
	memory := streamLevels * float64(n) * bytesPerForKey / bw // ns (GB/s == bytes/ns)

	// Partial compute/memory overlap: the dominant resource plus 30% of
	// the other (task scheduling prevents perfect overlap).
	hi, lo := compute, memory
	if memory > compute {
		hi, lo = memory, compute
	}
	return time.Duration(hi + 0.3*lo)
}

// Fig4 prints the shared-memory study: dhsort (MPI-rank style, PGAS
// pricing, one data move) against the TBB PSTL and OpenMP task merge sort
// models, from 1 to 4 NUMA domains.  Expected shape (paper): the
// shared-memory sorts win inside one domain; dhsort wins as soon as data
// crosses domain boundaries.
func Fig4(o Options) error {
	realTotal := 1 << 17
	if o.Full {
		realTotal = 1 << 19
	}
	scale := float64(fig4VirtualKeys) / float64(realTotal)
	model := simnet.SuperMUC(4*fig4CoresPerDom, true)

	fmt.Fprintf(o.Out, "Fig. 4 — shared memory, one node, 5 GB normal float64 keys (virtual), 1-4 NUMA domains\n")
	fmt.Fprintf(o.Out, "dhsort: %d ranks/domain under the PGAS cost model; PSTL/OpenMP: analytic same-machine models\n", fig4CoresPerDom)
	fmt.Fprintf(o.Out, "(dhsort column: comparison local kernel, as in the paper's std::sort implementation;\n")
	fmt.Fprintf(o.Out, "+radix column: the same run with the LSD radix local kernel)\n\n")
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "domains\tcores\tdhsort s\t+radix s\tPSTL(TBB) s\tOpenMP s\twinner\n")

	var rows []Trial
	for d := 1; d <= 4; d++ {
		p := d * fig4CoresPerDom
		rows = append(rows, Trial{P: p, N: realTotal / p * p, Model: model,
			Spec: workload.Spec{Dist: workload.Normal, Seed: o.Seed + uint64(d), Span: 1e9}})
	}
	// The dhsort column runs the comparison local sort, like the paper's
	// std::sort, so the winner column reproduces the published crossover;
	// +radix dispatches by key type — this reproduction's fast path.
	grid, err := sweep(rows, dhsortCols(o, scale, core.Config{Kernel: core.KernelIntrosort}, core.Config{}), 1)
	if err != nil {
		return err
	}
	for i, row := range grid {
		d, p := i+1, rows[i].P
		dh := row[0].Makespan
		threads := 2 * p // hyperthreading, as in the paper
		tbb := sharedMergeSortTime(fig4VirtualKeys, threads, d, model, 1.0)
		omp := sharedMergeSortTime(fig4VirtualKeys, threads, d, model, 1.2)
		winner := "dhsort"
		if tbb < dh && tbb <= omp {
			winner = "PSTL"
		} else if omp < dh && omp < tbb {
			winner = "OpenMP"
		}
		fmt.Fprintf(tw, "%d\t%d\t%s\t%s\t%s\t%s\t%s\n",
			d, p, seconds(dh), seconds(row[1].Makespan), seconds(tbb), seconds(omp), winner)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "\nexpected shape (paper §VI-D): PSTL wins on 1 domain; dhsort wins once data\n")
	fmt.Fprintf(o.Out, "crosses NUMA boundaries, because it moves every element exactly once.  The\n")
	fmt.Fprintf(o.Out, "radix local kernel (see -exp local) closes most of the 1-domain gap.\n")
	return nil
}
