package bench

import (
	"fmt"
	"time"

	"dhsort/internal/core"
	"dhsort/internal/fault"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/stats"
	"dhsort/internal/workload"
)

// schedule is one row of a fault-schedule table: a seeded plan and the
// recovery mode it runs under.
type schedule struct {
	label    string
	plan     fault.Plan
	recovery string
}

// scheduleTable runs dhsort at p = 16 (64 with -full) under every schedule
// and prints one row each: the median modelled makespan, its overhead over
// the first row, and tail's cells (headed tailHead) from the first
// repetition.  Every row verifies: faults cost time, never correctness.
func scheduleTable(o Options, title, tailHead string, schedules func(p int) []schedule, tail func(p int, s metrics.Summary) string) error {
	p, perRank := 16, 4096
	if o.Full {
		p, perRank = 64, 16384
	}
	t := Trial{P: p, N: p * perRank, Model: simnet.SuperMUC(suiteRanksPerNode, true),
		Spec: workload.Spec{Dist: workload.Uniform, Seed: o.Seed, Span: 1e9}}
	fmt.Fprintf(o.Out, "%s — dhsort, p=%d, %d keys/rank, uniform (modelled SuperMUC time; extension, no paper figure)\n", title, p, perRank)
	fmt.Fprintf(o.Out, "%-28s %12s %9s%s\n", "schedule", "makespan", "overhead", tailHead)
	var base time.Duration
	for _, s := range schedules(p) {
		t.Plan = s.plan
		grid, err := sweep([]Trial{t}, dhsortCols(o, 0, core.Config{Recovery: s.recovery}), o.reps())
		if err != nil {
			return fmt.Errorf("schedule %q: %w", s.label, err)
		}
		pt := grid[0][0]
		m := stats.Summarize(pt.Runs)
		if base == 0 {
			base = m.Median
		}
		fmt.Fprintf(o.Out, "%-28s %12v %+8.1f%%%s\n", s.label, m.Median.Round(time.Microsecond),
			100*(float64(m.Median)/float64(base)-1), tail(p, pt.Summary))
	}
	return nil
}

// FaultStudy is an EXTENSION, not a paper figure: the source paper assumes
// a reliable interconnect.  It measures the resilience degradation curve —
// modelled makespan overhead of the dhsort under seeded fault schedules,
// sweeping message drop rate × injected rank crashes — together with the
// fault plane's own accounting (retries, dedup hits, checkpoints,
// recovery time).  An operator-supplied -fault schedule rides along as one
// extra row, under the operator's recovery mode.
func FaultStudy(o Options) error {
	schedules := func(p int) []schedule {
		var out []schedule
		for ci, cr := range [][]fault.Crash{
			nil,
			{{Rank: p / 3, Step: core.StepSplitting}},
			{{Rank: p / 3, Step: core.StepSplitting}, {Rank: 2 * p / 3, Step: core.StepCuts}},
		} {
			for _, dr := range []float64{0, 0.01, 0.02, 0.05} {
				plan := fault.Plan{Seed: o.Seed, DropRate: dr, Crashes: cr}
				label := fmt.Sprintf("drop=%g,crashes=%d", dr, ci)
				if !plan.Enabled() {
					label = "fault-free"
				}
				out = append(out, schedule{label, plan, ""})
			}
		}
		if o.Fault.Enabled() {
			out = append(out, schedule{o.Fault.String(), o.Fault, o.Recovery})
		}
		return out
	}
	return scheduleTable(o, "resilience degradation", fmt.Sprintf(" %8s %8s %8s %12s", "retries", "dedup", "ckpts", "recovery"), schedules,
		func(_ int, s metrics.Summary) string {
			f := s.Fault
			return fmt.Sprintf(" %8d %8d %8d %12v", f.Retries, f.Dedup, f.Checkpoints, time.Duration(f.RecoveryNS).Round(time.Microsecond))
		})
}

// ShrinkStudy is an EXTENSION, not a paper figure: the graceful-degradation
// comparison of the two recovery mechanisms.  Crash schedules respawn from
// superstep checkpoints and finish on all P ranks; death schedules revoke,
// agree, adopt the victim's ring-mirrored shard and finish on the
// survivors.
func ShrinkStudy(o Options) error {
	schedules := func(p int) []schedule {
		crash1 := fault.Crash{Rank: p / 3, Step: core.StepSplitting}
		die1 := fault.Death{Rank: p / 3, Step: core.StepLocalSort}
		return []schedule{
			{"fault-free", fault.Plan{}, core.RecoveryRespawn},
			{"crash x1 (respawn)", fault.Plan{Seed: o.Seed, Crashes: []fault.Crash{crash1}}, core.RecoveryRespawn},
			{"crash x2 (respawn)", fault.Plan{Seed: o.Seed,
				Crashes: []fault.Crash{crash1, {Rank: 2 * p / 3, Step: core.StepCuts}}}, core.RecoveryRespawn},
			{"die x1 (shrink)", fault.Plan{Seed: o.Seed, Deaths: []fault.Death{die1}}, core.RecoveryShrink},
			{"die x2 (shrink)", fault.Plan{Seed: o.Seed,
				Deaths: []fault.Death{die1, {Rank: 2 * p / 3, Step: core.StepSplitting}}}, core.RecoveryShrink},
			{"die x1 + drop=0.02 (shrink)", fault.Plan{Seed: o.Seed, DropRate: 0.02, Deaths: []fault.Death{die1}}, core.RecoveryShrink},
		}
	}
	return scheduleTable(o, "graceful degradation", fmt.Sprintf(" %7s %7s %10s %10s", "deaths", "agree", "shrink", "survivors"), schedules,
		func(p int, s metrics.Summary) string {
			survivors := p
			if s.Survivors > 0 {
				survivors = s.Survivors
			}
			return fmt.Sprintf(" %7d %7d %10v %10d", s.Fault.Deaths, s.Fault.AgreeRounds,
				time.Duration(s.Fault.ShrinkNS).Round(time.Microsecond), survivors)
		})
}
