package bench

import (
	"fmt"

	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/keys"
	"dhsort/internal/samplesort"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

// SkewStudy measures output imbalance against duplicate-flood intensity —
// the PGX.D failure mode: a value holding a constant fraction of the input
// defeats value-only splitters, because every copy compares equal and lands
// on one rank.  Three partitioning strategies are compared:
//
//   - samplesort: value-only sampled splitters — collapses as the flood grows
//   - samplesort+tb: the same splitters over (key, rank, index) triples —
//     splitters cut inside the duplicate run, imbalance stays bounded
//   - dhsort: histogram splitting with Algorithm-4 boundary refinement —
//     count-exact by construction, the flood never shows
func SkewStudy(o Options) error {
	const p, perRank = 16, 2048
	model := simnet.SuperMUC(suiteRanksPerNode, true)
	// samplesort+tb is the table's samplesort with the splitters chosen
	// over (key, rank, index) triples, so they can cut inside a run of
	// duplicates at the price of 8 extra wire bytes per key.
	tieBreak := func(c *comm.Comm, local []uint64, cfg core.Config, seed uint64) ([]uint64, *comm.Comm, error) {
		out, err := samplesort.Sort(c, local, keys.Uint64{}, samplesort.Config{
			Variant: samplesort.RegularSampling, VirtualScale: cfg.VirtualScale, Recorder: cfg.Recorder, Seed: seed, TieBreak: true})
		return out, c, err
	}
	sorters := []struct {
		name string
		sort Sorter
	}{{"samplesort", Sorters["samplesort"]}, {"samplesort+tb", tieBreak}, {"dhsort", Sorters["dhsort"]}}
	cfg := core.Config{Threads: o.threads()}
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
			pt, err := Run(s.sort, cfg, Trial{P: p, N: p * perRank, Model: model, Spec: spec})
			if err != nil {
				return fmt.Errorf("skew %s flood=%.2f: %w", s.name, frac, err)
			}
			fmt.Fprintf(o.Out, " %14.2f", pt.Summary.OutputImbalance)
		}
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintf(o.Out, "\nexpected shape: samplesort rises toward p·frac as the flood value\n")
	fmt.Fprintf(o.Out, "collapses onto one rank; samplesort+tb and dhsort stay near 1.\n")
	return nil
}
