package bench

import (
	"fmt"
	"text/tabwriter"

	"dhsort/internal/core"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/stats"
	"dhsort/internal/workload"
)

// Strong scaling (Fig. 2): fixed total volume, growing rank count.  The
// paper schedules 16 ranks per node (the Charm++ power-of-two constraint)
// and generates 64-bit unsigned integers uniformly in [0, 1e9]; ε = 0.
const (
	strongVirtualTotal = int64(1) << 31 // ~2^31 keys = 16 GiB of uint64
	weakVirtualPerRank = int64(1) << 24 // 128 MiB per rank (§VI-C)
	ranksPerNodeFig23  = 16
)

func strongPoints(full bool) []int {
	if full {
		return []int{16, 32, 64, 128, 256, 512, 1024, 2048, 3584}
	}
	return []int{16, 32, 64, 128, 256}
}

func strongRealTotal(full bool) int {
	if full {
		return 1 << 21
	}
	return 1 << 19
}

// Fig2a prints the strong-scaling comparison of Fig. 2(a): median execution
// time (95% CI) of dhsort (DASH) and HSS (the Charm++ comparator), with
// speedup and parallel efficiency relative to the smallest configuration.
func Fig2a(o Options) error {
	model := simnet.SuperMUC(ranksPerNodeFig23, true)
	realTotal := strongRealTotal(o.Full)
	scale := float64(strongVirtualTotal) / float64(realTotal)
	points := strongPoints(o.Full)

	fmt.Fprintf(o.Out, "Fig. 2(a) — strong scaling, uniform uint64 in [0,1e9], N = 2^31 keys (virtual), eps = 0\n")
	fmt.Fprintf(o.Out, "model: SuperMUC Phase 2, %d ranks/node, PGAS intra-node; %d reps (median + 95%% CI)\n\n",
		ranksPerNodeFig23, o.reps())
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "cores\tnodes\tdhsort s\t[CI]\thss s\t[CI]\tdhsort speedup\tefficiency\n")

	var base stats.Summary
	baseP := points[0]
	for _, p := range points {
		t := Trial{P: p, N: realTotal / p * p, Model: model, Scale: scale,
			Spec: workload.Spec{Dist: workload.Uniform, Seed: o.Seed + uint64(p), Span: 1e9}}
		dhRuns, _, err := series(Sorters["dhsort"], core.Config{Threads: o.threads()}, t, o.reps())
		if err != nil {
			return err
		}
		hsRuns, _, err := series(Sorters["hss"], core.Config{Threads: o.threads()}, t, o.reps())
		if err != nil {
			return err
		}
		dh, hs := stats.Summarize(dhRuns), stats.Summarize(hsRuns)
		if p == baseP {
			base = dh
		}
		fmt.Fprintf(tw, "%d\t%d\t%s\t[%s,%s]\t%s\t[%s,%s]\t%.1f\t%.2f\n",
			p, model.Topo.Nodes(p),
			seconds(dh.Median), seconds(dh.CILow), seconds(dh.CIHigh),
			seconds(hs.Median), seconds(hs.CILow), seconds(hs.CIHigh),
			stats.Speedup(base.Median, dh.Median),
			stats.Efficiency(base.Median, baseP, dh.Median, p))
	}
	return tw.Flush()
}

// Fig2b prints the per-phase fractions of Fig. 2(b) for dhsort under strong
// scaling: histogramming grows to dominate beyond ~2000 ranks while the
// exchange share stays roughly stable.
func Fig2b(o Options) error {
	model := simnet.SuperMUC(ranksPerNodeFig23, true)
	realTotal := strongRealTotal(o.Full)
	scale := float64(strongVirtualTotal) / float64(realTotal)

	fmt.Fprintf(o.Out, "Fig. 2(b) — strong-scaling phase fractions (dhsort), N = 2^31 keys (virtual)\n\n")
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "cores\tnodes\tLocalSort\tHistogram\tExchange\tMerge\tOther\titers\n")
	for _, p := range strongPoints(o.Full) {
		pt, err := Run(Sorters["dhsort"], core.Config{Threads: o.threads()}, Trial{P: p, N: realTotal / p * p, Model: model, Scale: scale,
			Spec: workload.Spec{Dist: workload.Uniform, Seed: o.Seed + uint64(p), Span: 1e9}})
		if err != nil {
			return err
		}
		s := pt.Summary
		fmt.Fprintf(tw, "%d\t%d\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%d\n",
			p, model.Topo.Nodes(p),
			100*s.Fraction(metrics.LocalSort), 100*s.Fraction(metrics.Histogram),
			100*s.Fraction(metrics.Exchange), 100*s.Fraction(metrics.Merge),
			100*s.Fraction(metrics.Other), s.Iterations)
	}
	return tw.Flush()
}

func weakNodes(full bool) []int {
	if full {
		return []int{1, 2, 4, 8, 16, 32, 64, 128}
	}
	return []int{1, 2, 4, 8, 16}
}

func weakRealPerRank(full bool) int {
	if full {
		return 4096
	}
	return 2048
}

// Fig3a prints the weak-scaling study of Fig. 3(a): 128 MiB of uint64 keys
// per rank (virtual), 16 ranks per node, 1..128 nodes.  The paper reports
// 2.3 s on one node rising to 4.6 s at 128 nodes for DASH, with HSS
// (Charm++) volatile and slower.
func Fig3a(o Options) error {
	model := simnet.SuperMUC(ranksPerNodeFig23, true)
	perRankReal := weakRealPerRank(o.Full)
	scale := float64(weakVirtualPerRank) / float64(perRankReal)

	fmt.Fprintf(o.Out, "Fig. 3(a) — weak scaling, 128 MiB/rank (virtual), uniform uint64 in [0,1e9], eps = 0\n")
	fmt.Fprintf(o.Out, "model: SuperMUC Phase 2, %d ranks/node, PGAS intra-node; %d reps\n\n", ranksPerNodeFig23, o.reps())
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "nodes\tcores\tdhsort s\t[CI]\tweak eff\thss s\t[CI]\tweak eff\n")

	var dhBase, hsBase stats.Summary
	for i, nodes := range weakNodes(o.Full) {
		p := nodes * ranksPerNodeFig23
		t := Trial{P: p, N: p * perRankReal, Model: model, Scale: scale,
			Spec: workload.Spec{Dist: workload.Uniform, Seed: o.Seed + uint64(nodes), Span: 1e9}}
		dhRuns, _, err := series(Sorters["dhsort"], core.Config{Threads: o.threads()}, t, o.reps())
		if err != nil {
			return err
		}
		hsRuns, _, err := series(Sorters["hss"], core.Config{Threads: o.threads()}, t, o.reps())
		if err != nil {
			return err
		}
		dh, hs := stats.Summarize(dhRuns), stats.Summarize(hsRuns)
		if i == 0 {
			dhBase, hsBase = dh, hs
		}
		fmt.Fprintf(tw, "%d\t%d\t%s\t[%s,%s]\t%.2f\t%s\t[%s,%s]\t%.2f\n",
			nodes, p,
			seconds(dh.Median), seconds(dh.CILow), seconds(dh.CIHigh),
			stats.WeakEfficiency(dhBase.Median, dh.Median),
			seconds(hs.Median), seconds(hs.CILow), seconds(hs.CIHigh),
			stats.WeakEfficiency(hsBase.Median, hs.Median))
	}
	return tw.Flush()
}

// Fig3b prints the weak-scaling phase fractions of Fig. 3(b): local sort
// and the ALLTOALLV exchange dominate; histogramming stays amortized.
func Fig3b(o Options) error {
	model := simnet.SuperMUC(ranksPerNodeFig23, true)
	perRankReal := weakRealPerRank(o.Full)
	scale := float64(weakVirtualPerRank) / float64(perRankReal)

	fmt.Fprintf(o.Out, "Fig. 3(b) — weak-scaling phase fractions (dhsort), 128 MiB/rank (virtual)\n\n")
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "nodes\tcores\tLocalSort\tHistogram\tExchange\tMerge\tOther\titers\texchanged GiB\n")
	for _, nodes := range weakNodes(o.Full) {
		p := nodes * ranksPerNodeFig23
		pt, err := Run(Sorters["dhsort"], core.Config{Threads: o.threads()}, Trial{P: p, N: p * perRankReal, Model: model, Scale: scale,
			Spec: workload.Spec{Dist: workload.Uniform, Seed: o.Seed + uint64(nodes), Span: 1e9}})
		if err != nil {
			return err
		}
		s := pt.Summary
		fmt.Fprintf(tw, "%d\t%d\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%d\t%.1f\n",
			nodes, p,
			100*s.Fraction(metrics.LocalSort), 100*s.Fraction(metrics.Histogram),
			100*s.Fraction(metrics.Exchange), 100*s.Fraction(metrics.Merge),
			100*s.Fraction(metrics.Other), s.Iterations,
			float64(s.ExchangedBytes)/(1<<30))
	}
	return tw.Flush()
}
