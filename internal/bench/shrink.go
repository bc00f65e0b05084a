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

// ShrinkStudy is an EXTENSION, not a paper figure: the graceful-degradation
// comparison of the two recovery mechanisms.  Crash schedules respawn from
// superstep checkpoints and finish on all P ranks; death schedules revoke,
// agree, adopt the victim's ring-mirrored shard and finish on the
// survivors.  Every row verifies the sorted-output invariant on the
// communicator the result lives on — degradation costs time and (for
// shrink) ranks, never correctness.
func ShrinkStudy(o Options) error {
	p, perRank := 16, 4096
	if o.Full {
		p, perRank = 64, 16384
	}
	model := simnet.SuperMUC(suiteRanksPerNode, true)
	cfg := core.Config{Threads: o.threads()}
	t := Trial{P: p, N: p * perRank, Model: model, Spec: workload.Spec{Dist: workload.Uniform, Seed: o.Seed, Span: 1e9}}

	type cfgRow struct {
		label    string
		recovery string
		plan     fault.Plan
	}
	rows := []cfgRow{
		{"fault-free", core.RecoveryRespawn, fault.Plan{}},
		{"crash x1 (respawn)", core.RecoveryRespawn, fault.Plan{Seed: o.Seed,
			Crashes: []fault.Crash{{Rank: p / 3, Step: core.StepSplitting}}}},
		{"crash x2 (respawn)", core.RecoveryRespawn, fault.Plan{Seed: o.Seed,
			Crashes: []fault.Crash{{Rank: p / 3, Step: core.StepSplitting}, {Rank: 2 * p / 3, Step: core.StepCuts}}}},
		{"die x1 (shrink)", core.RecoveryShrink, fault.Plan{Seed: o.Seed,
			Deaths: []fault.Death{{Rank: p / 3, Step: core.StepLocalSort}}}},
		{"die x2 (shrink)", core.RecoveryShrink, fault.Plan{Seed: o.Seed,
			Deaths: []fault.Death{{Rank: p / 3, Step: core.StepLocalSort}, {Rank: 2 * p / 3, Step: core.StepSplitting}}}},
		{"die x1 + drop=0.02 (shrink)", core.RecoveryShrink, fault.Plan{Seed: o.Seed, DropRate: 0.02,
			Deaths: []fault.Death{{Rank: p / 3, Step: core.StepLocalSort}}}},
	}

	fmt.Fprintf(o.Out, "graceful degradation — dhsort, p=%d, %d keys/rank, uniform (modelled SuperMUC time; extension, no paper figure)\n", p, perRank)
	fmt.Fprintf(o.Out, "%-28s %12s %9s %7s %7s %10s %10s\n",
		"schedule", "makespan", "overhead", "deaths", "agree", "shrink", "survivors")

	var base time.Duration
	for _, r := range rows {
		t.Plan, t.Recovery = r.plan, r.recovery
		runs, first, err := series(Sorters["dhsort"], cfg, t, o.reps())
		if err != nil {
			return fmt.Errorf("schedule %q: %w", r.label, err)
		}
		sum := first.Summary
		m := stats.Summarize(runs)
		if base == 0 {
			base = m.Median
		}
		overhead := 100 * (float64(m.Median)/float64(base) - 1)
		survivors := p
		if sum.Survivors > 0 {
			survivors = sum.Survivors
		}
		fmt.Fprintf(o.Out, "%-28s %12v %+8.1f%% %7d %7d %10v %10d\n",
			r.label, m.Median.Round(time.Microsecond), overhead,
			sum.Fault.Deaths, sum.Fault.AgreeRounds,
			time.Duration(sum.Fault.ShrinkNS).Round(time.Microsecond), survivors)
	}
	return nil
}
