package bench

import (
	"fmt"

	"dhsort/internal/core"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

// OOCStudy is the out-of-core ablation: dhsort with a per-rank memory
// budget of one eighth of the input against the fully resident run, with
// the merge fan-in swept over the spilled configurations.  A smaller fan-in
// means more merge passes over the same records (more scratch traffic); the
// virtual makespan moves only through the merge's comparison costs because
// store I/O itself is unpriced — the table isolates the schedule change.
// The spill store is in-memory, so the experiment stays hermetic while
// exercising the exact external-memory schedule.
func OOCStudy(o Options) error {
	const perRank = 4096
	budget := int64(perRank) // perRank keys x 8 B, divided by 8
	model := simnet.SuperMUC(suiteRanksPerNode, true)
	fanIns := []int{2, 4, 8, 16}
	cfgs := []core.Config{{}}
	for _, fanIn := range fanIns {
		cfgs = append(cfgs, core.Config{MemBudget: budget, SpillFanIn: fanIn})
	}
	var rows []Trial
	for _, p := range []int{16, 64} {
		rows = append(rows, Trial{P: p, N: p * perRank, Model: model, Spec: workload.Spec{Dist: workload.Uniform, Seed: o.Seed, Span: 1e9}})
	}
	grid, err := sweep(rows, dhsortCols(o, 0, cfgs...), 1)
	if err != nil {
		return fmt.Errorf("ooc: %w", err)
	}

	for i, row := range grid {
		fmt.Fprintf(o.Out, "out-of-core spill vs fan-in, p=%d n/p=%d budget=%dB/rank (1/8 of input)\n", rows[i].P, perRank, budget)
		fmt.Fprintf(o.Out, "%-18s %14s %14s %12s %12s\n", "config", "merge", "makespan", "runs", "scratchMiB")
		for j, pt := range row {
			label, vs := "resident", ""
			if j > 0 {
				label = fmt.Sprintf("spill fan-in=%d", fanIns[j-1])
				vs = fmt.Sprintf("  (%.2fx makespan vs resident)", float64(pt.Makespan)/float64(row[0].Makespan))
			}
			fmt.Fprintf(o.Out, "%-18s %12dns %12dns %12d %12.2f%s\n", label,
				pt.Summary.Times[metrics.Merge].Nanoseconds(), pt.Makespan.Nanoseconds(),
				pt.Summary.SpilledRuns, float64(pt.Summary.SpillBytes)/(1<<20), vs)
		}
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintf(o.Out, "expected shape: output stays bit-identical to the resident run at every\n")
	fmt.Fprintf(o.Out, "fan-in; scratch traffic falls monotonically as the fan-in widens (fewer\n")
	fmt.Fprintf(o.Out, "reduction passes), while the modelled merge time trades pass count\n")
	fmt.Fprintf(o.Out, "against tournament width around a few percent over the resident run.\n")
	return nil
}
