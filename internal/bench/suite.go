package bench

import (
	"fmt"
	"time"

	"dhsort/internal/core"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

// suitePerRank is the suite's keys per rank at every grid point, and
// suiteRanksPerNode the paper's Charm++-comparison node width.
const suitePerRank, suiteRanksPerNode = 4096, 16

// RunSuite measures every entry of Configs over the grid and returns the
// versioned document cmd/bench serializes as BENCH_*.json.  All runs use
// the SuperMUC PGAS cost model (virtual clocks), so every tracked metric is
// deterministic for a given binary — exactly what the compare gate needs.
func RunSuite(o Options) (metrics.Document, error) {
	// Powers of two so the bitonic baseline participates everywhere.  The
	// smoke grid is a true subset of the full one (one of its points), so
	// CompareSubset can gate a smoke document against BENCH_full.json.
	suite, ps, dists := "full", []int{16, 64}, []workload.Distribution{workload.Uniform, workload.Normal, workload.Zipf}
	if o.Smoke {
		suite, ps, dists = "smoke", ps[:1], dists[:1]
	}
	doc := metrics.Document{
		Schema: metrics.SchemaVersion,
		Config: metrics.RunConfig{
			Suite:        suite,
			Model:        "supermuc-pgas",
			RanksPerNode: suiteRanksPerNode,
			Reps:         o.reps(),
			Seed:         o.Seed,
		},
	}
	if o.Fault.Enabled() {
		doc.Config.Fault = o.Fault.String()
	}
	model := simnet.SuperMUC(suiteRanksPerNode, true)
	var rows []Trial
	for _, p := range ps {
		for _, dist := range dists {
			rows = append(rows, Trial{P: p, N: p * suitePerRank, Model: model, Plan: o.Fault,
				Spec: workload.Spec{Dist: dist, Seed: o.Seed + uint64(p), Span: 1e9}})
		}
	}
	var recovery, note string
	if len(o.Fault.Deaths) > 0 {
		// Permanent deaths restrict the suite to the configurations with a
		// shrink recovery path; the others cannot complete the schedule.
		if o.Recovery != core.RecoveryShrink {
			return metrics.Document{}, fmt.Errorf("bench: fault schedule %q kills ranks permanently; pass -recovery shrink", o.Fault)
		}
		recovery, note = o.Recovery, fmt.Sprintf(" (recovery=%s)", o.Recovery)
	}
	for _, col := range Configs {
		col.Cfg.Threads, col.Cfg.Recovery = o.threads(), recovery
		if recovery != "" && (!Sorters[col.Sorter].Pipeline || col.Cfg.Validate() != nil) {
			continue
		}
		pts, err := sweep(rows, []Column{col}, o.reps())
		if err != nil {
			return metrics.Document{}, fmt.Errorf("bench: suite point %w", err)
		}
		for i, t := range rows {
			pt := pts[i][0]
			rec := metrics.NewRecord(col.Name, t.P, suitePerRank, string(t.Spec.Dist), pt.Runs, pt.Summary)
			rec.Recovery, rec.MemBudget = recovery, col.Cfg.MemBudget
			doc.Records = append(doc.Records, rec)
			if o.Out != nil {
				fmt.Fprintf(o.Out, "  %-12s p=%-4d %-8s makespan %v%s\n",
					col.Name, t.P, t.Spec.Dist, time.Duration(rec.Makespan.MeanNS).Round(time.Microsecond), note)
			}
		}
	}
	return doc, nil
}
