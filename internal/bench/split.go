package bench

import (
	"fmt"

	"dhsort/internal/core"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

// SplitStudy is the k-ary probing ablation: refinement rounds and modelled
// Splitting time against the probe count, on full-range 64-bit keys (the
// widest refinement intervals; the paper's histogramming-dominates regime,
// §V-A).  Rounds drop from log2 to log_{k+1} of range over key gap while
// each round's ALLREDUCE carries k counters per boundary — the table shows
// where the latency saved on rounds outweighs the fatter payload.
func SplitStudy(o Options) error {
	const perRank = 4096
	model := simnet.SuperMUC(suiteRanksPerNode, true)
	probeCounts := []int{1, 2, 4, 8, 16}

	var cfgs []core.Config
	for _, k := range probeCounts {
		cfgs = append(cfgs, core.Config{Probes: k})
	}
	// Full-range keys (span 0): the widest refinement intervals and the
	// clearest round-count contrast.
	var rows []Trial
	for _, p := range []int{16, 64} {
		rows = append(rows, Trial{P: p, N: p * perRank, Model: model, Spec: workload.Spec{Dist: workload.Uniform, Seed: o.Seed, Span: 0}})
	}
	grid, err := sweep(rows, dhsortCols(o, 0, cfgs...), 1)
	if err != nil {
		return fmt.Errorf("split: %w", err)
	}
	for i, row := range grid {
		fmt.Fprintf(o.Out, "splitter refinement vs probes per boundary, p=%d n/p=%d full-range uint64\n", rows[i].P, perRank)
		fmt.Fprintf(o.Out, "%-8s %8s %14s %14s\n", "probes", "rounds", "splitting", "makespan")
		base := row[0].Summary.Times[metrics.Histogram]
		for j, pt := range row {
			split := pt.Summary.Times[metrics.Histogram]
			fmt.Fprintf(o.Out, "%-8d %8d %12dns %12dns  (%.2fx splitting vs bisection)\n",
				probeCounts[j], pt.Summary.Iterations, split.Nanoseconds(), pt.Makespan.Nanoseconds(),
				float64(split)/float64(base))
		}
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintf(o.Out, "expected shape: rounds fall ~log_{k+1}(N), N the key count (a boundary is\n")
	fmt.Fprintf(o.Out, "done once a probe falls between the keys around its target);\n")
	fmt.Fprintf(o.Out, "splitting time falls until the k-wide ALLREDUCE payload and the extra\n")
	fmt.Fprintf(o.Out, "local binary searches eat the round savings.\n")
	return nil
}

// SkewStudy measures output imbalance against duplicate-flood intensity —
// the PGX.D failure mode: a value holding a constant fraction of the input
// defeats a partition by splitter value alone, because every copy compares
// equal and lands on one rank.  Three strategies are compared:
//
//   - samplesort: value-only sampled splitters, cut by Algorithm 4, which
//     clamps each target into the flooded run — the run splits
//   - samplesort+tb: the same splitters over (key, rank, index) triples —
//     splitters cut inside the duplicate run themselves
//   - dhsort: histogram splitting with Algorithm-4 boundary refinement —
//     count-exact by construction, the flood never shows
func SkewStudy(o Options) error {
	const p, perRank = 16, 2048
	model := simnet.SuperMUC(suiteRanksPerNode, true)
	cols := []Column{
		{"samplesort", "samplesort", core.Config{Threads: o.threads()}},
		// samplesort+tb chooses the same splitters over (key, rank, index)
		// triples, at the price of 8 extra wire bytes per key.
		{"samplesort+tb", "samplesort", core.Config{Threads: o.threads(), ForceUnique: true}},
		{"dhsort", "dhsort", core.Config{Threads: o.threads()}},
	}
	fracs := []float64{0, 0.25, 0.5, 0.75, 0.9}
	var rows []Trial
	for _, frac := range fracs {
		spec := workload.Spec{Dist: workload.DuplicateFlood, Seed: o.Seed, Span: 1e9, FloodFrac: frac}
		if frac == 0 {
			// FloodFrac zero means "default fraction", so the flood-free
			// baseline row uses the uniform workload instead.
			spec = workload.Spec{Dist: workload.Uniform, Seed: o.Seed, Span: 1e9}
		}
		rows = append(rows, Trial{P: p, N: p * perRank, Model: model, Spec: spec})
	}
	grid, err := sweep(rows, cols, 1)
	if err != nil {
		return fmt.Errorf("skew: %w", err)
	}

	fmt.Fprintf(o.Out, "output imbalance (max/mean) vs duplicate-flood fraction, p=%d n/p=%d\n", p, perRank)
	fmt.Fprintf(o.Out, "%-8s", "flood")
	for _, col := range cols {
		fmt.Fprintf(o.Out, " %14s", col.Name)
	}
	fmt.Fprintln(o.Out)
	for i, row := range grid {
		fmt.Fprintf(o.Out, "%-8.2f", fracs[i])
		for _, pt := range row {
			fmt.Fprintf(o.Out, " %14.2f", pt.Summary.OutputImbalance)
		}
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintf(o.Out, "\nexpected shape: both samplesort columns stay at the sampling noise\n")
	fmt.Fprintf(o.Out, "floor whatever the flood, as the cuts split the run; dhsort stays at 1.\n")
	return nil
}
