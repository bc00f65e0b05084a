package bench

import (
	"fmt"
	"time"

	"dhsort/internal/core"
	"dhsort/internal/fault"
	"dhsort/internal/simnet"
	"dhsort/internal/stats"
	"dhsort/internal/workload"
)

// FaultStudy is an EXTENSION, not a paper figure: the source paper assumes
// a reliable interconnect.  It measures the resilience degradation curve —
// modelled makespan overhead of the dhsort under seeded fault schedules,
// sweeping message drop rate × injected rank crashes — together with the
// fault plane's own accounting (retries, dedup hits, checkpoints,
// recovery time).  Every row still verifies the sorted-output invariant:
// faults cost time, never correctness.
func FaultStudy(o Options) error {
	p, perRank := 16, 4096
	if o.Full {
		p, perRank = 64, 16384
	}
	model := simnet.SuperMUC(suiteRanksPerNode, true)
	cfg := core.Config{Threads: o.threads()}
	t := Trial{P: p, N: p * perRank, Model: model, Spec: workload.Spec{Dist: workload.Uniform, Seed: o.Seed, Span: 1e9}}

	drops := []float64{0, 0.01, 0.02, 0.05}
	crashes := [][]fault.Crash{
		nil,
		{{Rank: p / 3, Step: core.StepSplitting}},
		{{Rank: p / 3, Step: core.StepSplitting}, {Rank: 2 * p / 3, Step: core.StepCuts}},
	}

	fmt.Fprintf(o.Out, "resilience degradation — dhsort, p=%d, %d keys/rank, uniform (modelled SuperMUC time; extension, no paper figure)\n", p, perRank)
	fmt.Fprintf(o.Out, "%-28s %12s %9s %8s %8s %8s %12s\n",
		"schedule", "makespan", "overhead", "retries", "dedup", "ckpts", "recovery")

	var base time.Duration
	row := func(label string, plan fault.Plan, recovery string) error {
		t.Plan, t.Recovery = plan, recovery
		runs, first, err := series(Sorters["dhsort"], cfg, t, o.reps())
		if err != nil {
			return fmt.Errorf("schedule %q: %w", label, err)
		}
		m := stats.Summarize(runs)
		if base == 0 {
			base = m.Median
		}
		overhead := 100 * (float64(m.Median)/float64(base) - 1)
		f := first.Summary.Fault
		fmt.Fprintf(o.Out, "%-28s %12v %+8.1f%% %8d %8d %8d %12v\n",
			label, m.Median.Round(time.Microsecond), overhead,
			f.Retries, f.Dedup, f.Checkpoints,
			time.Duration(f.RecoveryNS).Round(time.Microsecond))
		return nil
	}

	for ci, cr := range crashes {
		for _, dr := range drops {
			plan := fault.Plan{Seed: o.Seed, DropRate: dr, Crashes: cr}
			label := fmt.Sprintf("drop=%g,crashes=%d", dr, ci)
			if !plan.Enabled() {
				label = "fault-free"
			}
			if err := row(label, plan, ""); err != nil {
				return err
			}
		}
	}
	// An operator-supplied -fault schedule rides along as one extra row,
	// under the operator's recovery mode.
	if o.Fault.Enabled() {
		if err := row(o.Fault.String(), o.Fault, o.Recovery); err != nil {
			return err
		}
	}
	return nil
}
