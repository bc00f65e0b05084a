package bench

import (
	"fmt"
	"runtime"
	"slices"
	"text/tabwriter"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/keys"
	"dhsort/internal/prng"
	"dhsort/internal/psort"
	"dhsort/internal/simnet"
	"dhsort/internal/sortutil"
	"dhsort/internal/stats"
	"dhsort/internal/workload"
)

// Machine prints Table I: the modelled SuperMUC Phase 2 node, plus the
// calibrated cost-model constants this reproduction substitutes for the
// real hardware.
func Machine(o Options) error {
	fmt.Fprintln(o.Out, "Table I — SuperMUC Phase 2 single node (modelled)")
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "CPU\t2 x E5-2697v3 (14 cores each, 4 NUMA domains/node)\n")
	fmt.Fprintf(tw, "Memory\t64 GB (56 GB usable)\n")
	fmt.Fprintf(tw, "Network\tInfiniband FDR14, non-blocking fat tree\n")
	fmt.Fprintf(tw, "Compiler\tICC 18.0.2 -> Go toolchain (this reproduction)\n")
	fmt.Fprintf(tw, "MPI library\tIntel MPI 2018.2 -> internal/comm goroutine runtime\n")
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(o.Out, "\ncalibrated cost model (per link class: latency / per-flow bandwidth):")
	for _, rpn := range []int{16, 28} {
		for _, pgas := range []bool{true, false} {
			m := simnet.SuperMUC(rpn, pgas)
			mode := "MPI "
			if pgas {
				mode = "PGAS"
			}
			fmt.Fprintf(o.Out, "  %d ranks/node %s: same-numa %v/%.1f GB/s, cross-numa %v/%.1f GB/s, network %v/%.2f GB/s\n",
				rpn, mode,
				m.Alpha[simnet.SameNUMA], m.GBps[simnet.SameNUMA],
				m.Alpha[simnet.CrossNUMA], m.GBps[simnet.CrossNUMA],
				m.Alpha[simnet.Network], m.GBps[simnet.Network])
		}
	}
	m := simnet.SuperMUC(16, true)
	fmt.Fprintf(o.Out, "compute: %.1f ns/compare (sort), %.1f ns/elem/level (merge), %.1f ns/elem (scan), %.0f GB/s memcpy\n",
		m.CompareNs, m.MergeNs, m.ScanNs, m.MemGBps)
	return nil
}

// Iters prints the §V-A iteration-count study: histogramming iterations are
// bounded by the key width (~64 for full-range 64-bit keys, ~30 for 32-bit
// or span-limited keys).  The last column deals the same keys out
// rank-partitioned (rank r holds the r-th slice of the sorted sequence), the
// input on which the seeded brackets span the key range and the count is
// the plain bisection's.
func Iters(o Options) error {
	fmt.Fprintf(o.Out, "§V-A — histogramming iterations until all splitters are found (eps = 0)\n\n")
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "keys\tdistribution\tP=4\tP=16\tP=64\tP=64 rank-partitioned\n")

	configs := []struct {
		name string
		dist workload.Distribution
		span uint64
	}{
		{"uint64 full range", workload.Uniform, 0},
		{"uint64 in [0,1e9]", workload.Uniform, 1e9},
		{"uint64 normal", workload.Normal, 0},
		{"uint32", workload.Uniform, 1 << 31},
		{"float32", workload.Uniform, 1 << 22},
	}
	for _, cfg := range configs {
		fmt.Fprintf(tw, "%s\t%s", cfg.name, cfg.dist)
		// The second P = 64 column deals the keys out rank-partitioned.
		for i, p := range []int{4, 16, 64, 64} {
			n, err := measureIters(cfg.dist, cfg.span, cfg.name, p, 2048, o.Seed, i == 3)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "\t%d", n)
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "\nexpected: bounded by the key width.  The paper pays the bound (60-64 for\n")
	fmt.Fprintf(o.Out, "64-bit, 25-35 for 32-bit, ~30 for the [0,1e9] span, independent of P); starting\n")
	fmt.Fprintf(o.Out, "from the bracket of the ranks' local quantiles and accepting a probe as soon as\n")
	fmt.Fprintf(o.Out, "its counts bracket the target pays ~log2(bracket / key gap); rank-partitioned,\n")
	fmt.Fprintf(o.Out, "the bracket is the key range and the count ~log2(N) plus a few.\n")
	return nil
}

// measureIters runs only the splitter phase on raw keys (no uniqueness
// triples, matching the paper's §V-A accounting) and returns the iteration
// count.  partitioned deals the ranks' keys out again as consecutive slices
// of their sorted sequence.
func measureIters(dist workload.Distribution, span uint64, kind string, p, perRank int, seed uint64, partitioned bool) (int, error) {
	w, err := comm.NewWorld(p, nil)
	if err != nil {
		return 0, err
	}
	spec := workload.Spec{Dist: dist, Seed: seed + 7, Span: span}
	raws := make([][]uint64, p)
	var all []uint64
	for r := range raws {
		if raws[r], err = spec.Rank(r, perRank); err != nil {
			return 0, err
		}
		all = append(all, raws[r]...)
	}
	if partitioned {
		sortutil.Sort(all, keys.Uint64{}.Less)
		for r := range raws {
			raws[r] = all[r*perRank : (r+1)*perRank]
		}
	}
	targets := make([]int64, p-1)
	for i := range targets {
		targets[i] = int64((i + 1) * perRank)
	}
	iters := make([]int, p)
	err = w.Run(func(c *comm.Comm) error {
		raw := raws[c.Rank()]
		switch kind {
		case "uint32":
			iters[c.Rank()] = splitRounds(c, convert(raw, func(v uint64) uint32 { return uint32(v) }), keys.Uint32{}, targets)
		case "float32":
			iters[c.Rank()] = splitRounds(c, convert(raw, func(v uint64) float32 { return float32(v) / 3.7 }), keys.Float32{}, targets)
		default:
			iters[c.Rank()] = splitRounds(c, convert(raw, func(v uint64) uint64 { return v }), keys.Uint64{}, targets)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return iters[0], nil
}

// convert returns a copy of raw with every key mapped by f.
func convert[K any](raw []uint64, f func(uint64) K) []K {
	out := make([]K, len(raw))
	for i, v := range raw {
		out[i] = f(v)
	}
	return out
}

// splitRounds sorts local and returns the refinement rounds of the
// splitter search for targets.
func splitRounds[K any](c *comm.Comm, local []K, ops keys.Ops[K], targets []int64) int {
	sortutil.Sort(local, ops.Less)
	_, n := core.FindSplitters(c, local, ops, targets, 0, core.Config{Threads: 1})
	return n
}

// MergeStudy prints the §VI-E k-way merge comparison: merging time per
// element for the binary merge tree, the tournament (loser) tree, and the
// parallel re-sort, over chunk counts and worker budgets.  The paper's
// finding: many small chunks degrade merging (cache misses) until re-sort
// wins.  Measurements are real wall-clock times on this machine; the
// chunk-count trend is hardware-independent.
func MergeStudy(o Options) error {
	totalKeys := 1 << 21
	if o.Full {
		totalKeys = 1 << 23
	}
	fmt.Fprintf(o.Out, "§VI-E — k-way merge study, %d uint32 keys (real measurements, GOMAXPROCS=%d)\n\n",
		totalKeys, runtime.GOMAXPROCS(0))
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "chunks\tthreads\tbinary-tree ns/elem\ttournament ns/elem\tresort ns/elem\tbest\n")

	less := func(a, b uint32) bool { return a < b }
	for _, k := range []int{2, 8, 32, 128, 512} {
		// Equal-size sorted chunks of uniform keys, as in §VI-E.
		src := prng.NewXoshiro256(o.Seed + uint64(k))
		runs := make([][]uint32, k)
		for i := range runs {
			r := make([]uint32, totalKeys/k)
			for j := range r {
				r[j] = uint32(src.Uint64())
			}
			sortutil.Sort(r, less)
			runs[i] = r
		}
		for _, threads := range []int{1, 2, 4} {
			var cells [3]float64
			for i, alg := range psort.MergeAlgorithms {
				start := time.Now()
				out := psort.MergeK(alg, runs, less, threads)
				el := time.Since(start)
				if len(out) != totalKeys {
					return fmt.Errorf("merge %s lost elements", alg)
				}
				cells[i] = float64(el.Nanoseconds()) / float64(totalKeys)
			}
			best := psort.MergeAlgorithms[slices.Index(cells[:], slices.Min(cells[:]))]
			fmt.Fprintf(tw, "%d\t%d\t%.1f\t%.1f\t%.1f\t%s\n", k, threads, cells[0], cells[1], cells[2], best)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "\nexpected (paper): merging few large chunks is cheap; many small chunks\n")
	fmt.Fprintf(o.Out, "degrade tree merges until the parallel re-sort wins.\n")
	return nil
}

// NormalStudy prints the §VI-B robustness comparison: on normally
// distributed keys the Charm++ HSS histogramming became volatile (it
// failed to terminate within the 30-minute wall clock), while bisection
// refinement places its probes without looking at the data.  The
// experiment reports iteration counts over several seeds.
func NormalStudy(o Options) error {
	p, perRank := 64, 1024
	model := simnet.SuperMUC(16, true)
	fmt.Fprintf(o.Out, "§VI-B — normal-distribution robustness, P=%d, %d keys/rank, %d seeds\n\n", p, perRank, o.reps())
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "seed\tdhsort iters\tdhsort s\thss iters\thss s\n")

	var rows []Trial
	for rep := 0; rep < o.reps(); rep++ {
		rows = append(rows, Trial{P: p, N: p * perRank, Model: model,
			Spec: workload.Spec{Dist: workload.Normal, Seed: o.Seed + uint64(rep)*97, Span: 1e9}})
	}
	cfg := core.Config{Threads: o.threads(), VirtualScale: 1024}
	grid, err := sweep(rows, []Column{{"dhsort", "dhsort", cfg}, {"hss", "hss", cfg}}, 1)
	if err != nil {
		return err
	}
	var dhIters, hsIters []int
	for rep, row := range grid {
		dh, hs := row[0], row[1]
		dhIters, hsIters = append(dhIters, dh.Summary.Iterations), append(hsIters, hs.Summary.Iterations)
		fmt.Fprintf(tw, "%d\t%d\t%s\t%d\t%s\n", rep, dh.Summary.Iterations, seconds(dh.Makespan), hs.Summary.Iterations, seconds(hs.Makespan))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "\niteration spread: dhsort %d-%d (bisection), hss %d-%d\n",
		slices.Min(dhIters), slices.Max(dhIters), slices.Min(hsIters), slices.Max(hsIters))
	return nil
}

// PGAS prints the intra-node transport ablation: the same strong-scaling
// point priced with MPI-3 shared-memory windows (DASH's memcpy fast path,
// §VI-A1) versus a conventional MPI stack.
func PGAS(o Options) error {
	realTotal := 1 << 19
	scale := float64(strongVirtualTotal) / float64(realTotal)
	fmt.Fprintf(o.Out, "ablation — PGAS shared-memory windows vs pure MPI intra-node pricing\n\n")
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "cores\tnodes\tPGAS s\tMPI s\tPGAS gain\n")
	// Each rank count runs twice: PGAS pricing, then pure MPI.
	var rows []Trial
	for _, p := range []int{16, 64, 256} {
		for _, pgas := range []bool{true, false} {
			rows = append(rows, Trial{P: p, N: realTotal, Model: simnet.SuperMUC(16, pgas),
				Spec: workload.Spec{Dist: workload.Uniform, Seed: o.Seed + uint64(p), Span: 1e9}})
		}
	}
	grid, err := sweep(rows, dhsortCols(o, scale, core.Config{}), 1)
	if err != nil {
		return err
	}
	for i := 0; i < len(grid); i += 2 {
		p, pg, mp := rows[i].P, grid[i][0].Makespan, grid[i+1][0].Makespan
		fmt.Fprintf(tw, "%d\t%d\t%s\t%s\t%.1f%%\n", p, (p+15)/16,
			seconds(pg), seconds(mp), 100*(1-float64(pg)/float64(mp)))
	}
	return tw.Flush()
}

// Baselines runs every distributed sorter of this repository on one
// mid-size configuration — the cross-algorithm summary the related-work
// discussion (§III) motivates.
func Baselines(o Options) error {
	p, perRank := 64, 2048
	model := simnet.SuperMUC(16, true)
	scale := 1024.0
	fmt.Fprintf(o.Out, "ablation — all sorters, P=%d, %d keys/rank (x%d virtual), uniform [0,1e9]\n\n", p, perRank, int(scale))
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "algorithm\tmedian s\t[CI]\tnetwork GiB\timbalance\tnote\n")
	notes := []struct{ name, note string }{
		{"dhsort", "this paper; one data move, perfect partitioning"},
		{"hss", "Charm++ comparator [1]; sampled probes"},
		{"samplesort", "single-round sampling; approximate balance"},
		{"hyksort", "recursive comm splits [20]"},
		{"bitonic", "sorting network; moves data log P times"},
	}
	var cols []Column
	for _, n := range notes {
		cols = append(cols, Column{n.name, n.name, core.Config{Threads: o.threads(), VirtualScale: scale}})
	}
	t := Trial{P: p, N: p * perRank, Model: model,
		Spec: workload.Spec{Dist: workload.Uniform, Seed: o.Seed + 5, Span: 1e9}}
	grid, err := sweep([]Trial{t}, cols, o.reps())
	if err != nil {
		return err
	}
	for i, pt := range grid[0] {
		// Volume and balance come from the first repetition.
		sum := stats.Summarize(pt.Runs)
		fmt.Fprintf(tw, "%s\t%s\t[%s,%s]\t%.2f\t%.2f\t%s\n", notes[i].name,
			seconds(sum.Median), seconds(sum.CILow), seconds(sum.CIHigh),
			float64(pt.Summary.TotalLinks()[simnet.Network].Bytes)/(1<<30), pt.Summary.OutputImbalance, notes[i].note)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "\nimbalance = worst rank load / ideal load; the paper's algorithm buys\n")
	fmt.Fprintf(o.Out, "perfect partitioning (1.00) at the cost of the extra merge pass, with no\n")
	fmt.Fprintf(o.Out, "constraints on P or the key distribution (bitonic requires 2^k ranks).\n")
	return nil
}
