package bench

import (
	"fmt"
	"time"

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

	for _, p := range []int{16, 64} {
		// Full-range keys (span 0): the widest refinement intervals and the
		// clearest round-count contrast.
		spec := workload.Spec{Dist: workload.Uniform, Seed: o.Seed, Span: 0}
		fmt.Fprintf(o.Out, "splitter refinement vs probes per boundary, p=%d n/p=%d full-range uint64\n", p, perRank)
		fmt.Fprintf(o.Out, "%-8s %8s %14s %14s\n", "probes", "rounds", "splitting", "makespan")
		var base time.Duration
		for _, k := range probeCounts {
			pt, err := Run(Sorters["dhsort"], core.Config{Probes: k, Threads: o.threads()}, Trial{P: p, N: p * perRank, Model: model, Spec: spec})
			if err != nil {
				return fmt.Errorf("split p=%d probes=%d: %w", p, k, err)
			}
			split := pt.Summary.Times[metrics.Histogram]
			if k == 1 {
				base = split
			}
			fmt.Fprintf(o.Out, "%-8d %8d %12dns %12dns  (%.2fx splitting vs bisection)\n",
				k, pt.Summary.Iterations, split.Nanoseconds(), pt.Makespan.Nanoseconds(),
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
