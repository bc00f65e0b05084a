package bench

import (
	"fmt"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

// suiteGrid is the measured parameter grid.  All runs use the SuperMUC
// PGAS cost model (virtual clocks), so every tracked metric is
// deterministic for a given binary — exactly what the compare gate needs.
type suiteGrid struct {
	ps        []int
	perRank   int
	workloads []workload.Distribution
}

func (o Options) grid() suiteGrid {
	if o.Smoke {
		// A true subset of the full grid (same p, perRank and workload as
		// one full point) so CompareSubset can gate a smoke document
		// against the committed BENCH_full.json.
		return suiteGrid{
			ps:        []int{16},
			perRank:   4096,
			workloads: []workload.Distribution{workload.Uniform},
		}
	}
	return suiteGrid{
		// Powers of two so the bitonic baseline participates everywhere.
		ps:        []int{16, 64},
		perRank:   4096,
		workloads: []workload.Distribution{workload.Uniform, workload.Normal, workload.Zipf},
	}
}

// suiteRanksPerNode matches the paper's Charm++-comparison node width.
const suiteRanksPerNode = 16

// RunSuite measures every algorithm over the grid and returns the
// versioned document cmd/bench serializes as BENCH_*.json.
func RunSuite(o Options) (metrics.Document, error) {
	model := simnet.SuperMUC(suiteRanksPerNode, true)
	grid := o.grid()
	reps := o.reps()
	doc := metrics.Document{
		Schema: metrics.SchemaVersion,
		Config: metrics.RunConfig{
			Suite:        suiteName(o.Smoke),
			Model:        "supermuc-pgas",
			RanksPerNode: suiteRanksPerNode,
			Reps:         reps,
			Seed:         o.Seed,
		},
	}
	if o.Fault.Enabled() {
		doc.Config.Fault = o.Fault.String()
	}
	threads := o.threads()
	// dhsort-spill is the out-of-core configuration: a per-rank budget of
	// one eighth of the input, default merge fan-in.  Like dhsort-p8, its
	// records are additive — the resident rows stay byte-exact.
	spillBudget := int64(grid.perRank)
	type entry struct {
		name, alg string
		cfg       core.Config
	}
	sorters := []entry{
		{"dhsort", "dhsort", core.Config{Threads: threads}},
		{"dhsort-fused", "dhsort", core.Config{Merge: core.MergeOverlap, Threads: threads}},
		{"dhsort-rma", "dhsort", core.Config{Exchange: comm.ExchangeRMAPut, Threads: threads}},
		// dhsort-p8 is the k-ary probing configuration: additive records —
		// the plain dhsort rows (and their byte-exact history) are untouched.
		{"dhsort-p8", "dhsort", core.Config{Probes: 8, Threads: threads}},
		{"dhsort-spill", "dhsort", core.Config{MemBudget: spillBudget, Threads: threads}},
		{"hss", "hss", core.Config{Threads: threads}},
		{"samplesort", "samplesort", core.Config{Threads: threads}},
		{"hyksort", "hyksort", core.Config{Threads: threads}},
		{"bitonic", "bitonic", core.Config{Threads: threads}},
	}
	var recovery, note string
	if len(o.Fault.Deaths) > 0 {
		// Permanent deaths restrict the suite to the sorters with a shrink
		// recovery path; the others cannot complete the schedule at all.
		if o.Recovery != core.RecoveryShrink {
			return metrics.Document{}, fmt.Errorf("bench: fault schedule %q kills ranks permanently; pass -recovery shrink", o.Fault)
		}
		recovery, note = o.Recovery, fmt.Sprintf(" (recovery=%s)", o.Recovery)
		sorters = []entry{sorters[0], {"hss", "hss", core.Config{Threads: threads}}}
	}
	for _, s := range sorters {
		for _, p := range grid.ps {
			for _, dist := range grid.workloads {
				spec := workload.Spec{Dist: dist, Seed: o.Seed + uint64(p), Span: 1e9}
				makespans, first, err := series(Sorters[s.alg], s.cfg, Trial{P: p, N: p * grid.perRank, Model: model, Spec: spec, Plan: o.Fault, Recovery: recovery}, reps)
				if err != nil {
					return metrics.Document{}, fmt.Errorf("bench: suite point %s/p=%d/%s: %w", s.name, p, dist, err)
				}
				rec := metrics.NewRecord(s.name, p, grid.perRank, string(dist), makespans, first.Summary)
				rec.Recovery = recovery
				if s.name == "dhsort-spill" {
					rec.MemBudget = spillBudget
				}
				doc.Records = append(doc.Records, rec)
				if o.Out != nil {
					fmt.Fprintf(o.Out, "  %-12s p=%-4d %-8s makespan %v%s\n",
						s.name, p, dist, time.Duration(rec.Makespan.MeanNS).Round(time.Microsecond), note)
				}
			}
		}
	}
	return doc, nil
}

func suiteName(smoke bool) string {
	if smoke {
		return "smoke"
	}
	return "full"
}
