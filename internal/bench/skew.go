package bench

import (
	"fmt"

	"dhsort/internal/core"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

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
	sorters := []struct {
		name, alg string
		cfg       core.Config
	}{
		{"samplesort", "samplesort", core.Config{Threads: o.threads()}},
		// samplesort+tb chooses the same splitters over (key, rank, index)
		// triples, at the price of 8 extra wire bytes per key.
		{"samplesort+tb", "samplesort", core.Config{Threads: o.threads(), ForceUnique: true}},
		{"dhsort", "dhsort", core.Config{Threads: o.threads()}},
	}
	fracs := []float64{0, 0.25, 0.5, 0.75, 0.9}

	fmt.Fprintf(o.Out, "output imbalance (max/mean) vs duplicate-flood fraction, p=%d n/p=%d\n", p, perRank)
	fmt.Fprintf(o.Out, "%-8s", "flood")
	for _, s := range sorters {
		fmt.Fprintf(o.Out, " %14s", s.name)
	}
	fmt.Fprintln(o.Out)
	for _, frac := range fracs {
		spec := workload.Spec{Dist: workload.DuplicateFlood, Seed: o.Seed, Span: 1e9, FloodFrac: frac}
		if frac == 0 {
			// FloodFrac zero means "default fraction", so the flood-free
			// baseline row uses the uniform workload instead.
			spec = workload.Spec{Dist: workload.Uniform, Seed: o.Seed, Span: 1e9}
		}
		fmt.Fprintf(o.Out, "%-8.2f", frac)
		for _, s := range sorters {
			pt, err := Run(Sorters[s.alg], s.cfg, Trial{P: p, N: p * perRank, Model: model, Spec: spec})
			if err != nil {
				return fmt.Errorf("skew %s flood=%.2f: %w", s.name, frac, err)
			}
			fmt.Fprintf(o.Out, " %14.2f", pt.Summary.OutputImbalance)
		}
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintf(o.Out, "\nexpected shape: both samplesort columns stay at the sampling noise\n")
	fmt.Fprintf(o.Out, "floor whatever the flood, as the cuts split the run; dhsort stays at 1.\n")
	return nil
}
