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

// scaling is one of the paper's scaling sweeps, strong (Fig. 2) or weak
// (Fig. 3): uniform keys in [0,1e9], ε = 0, on 16 ranks per node under
// PGAS pricing, with bulk data priced at the paper's volume (scale).
type scaling struct {
	weak bool
	// Titles of the time table (with the note after its reps count) and
	// of the phase table.
	timeTitle, repsNote, phaseTitle string
	// head names the first two cells, places holds them for each row:
	// cores then nodes under strong scaling, nodes then cores under weak.
	head   string
	places []string
	rows   []Trial
	scale  float64
}

func strongScaling(o Options) scaling {
	points, realTotal := []int{16, 32, 64, 128, 256}, 1<<19
	if o.Full {
		points, realTotal = []int{16, 32, 64, 128, 256, 512, 1024, 2048, 3584}, 1<<21
	}
	s := scaling{
		timeTitle:  "Fig. 2(a) — strong scaling, uniform uint64 in [0,1e9], N = 2^31 keys (virtual), eps = 0",
		repsNote:   " (median + 95% CI)",
		phaseTitle: "Fig. 2(b) — strong-scaling phase fractions (dhsort), N = 2^31 keys (virtual)",
		head:       "cores\tnodes",
		scale:      float64(strongVirtualTotal) / float64(realTotal),
	}
	model := simnet.SuperMUC(ranksPerNodeFig23, true)
	for _, p := range points {
		s.rows = append(s.rows, Trial{P: p, N: realTotal / p * p, Model: model,
			Spec: workload.Spec{Dist: workload.Uniform, Seed: o.Seed + uint64(p), Span: 1e9}})
		s.places = append(s.places, fmt.Sprintf("%d\t%d", p, model.Topo.Nodes(p)))
	}
	return s
}

func weakScaling(o Options) scaling {
	nodes, perRankReal := []int{1, 2, 4, 8, 16}, 2048
	if o.Full {
		nodes, perRankReal = []int{1, 2, 4, 8, 16, 32, 64, 128}, 4096
	}
	s := scaling{
		weak:       true,
		timeTitle:  "Fig. 3(a) — weak scaling, 128 MiB/rank (virtual), uniform uint64 in [0,1e9], eps = 0",
		phaseTitle: "Fig. 3(b) — weak-scaling phase fractions (dhsort), 128 MiB/rank (virtual)",
		head:       "nodes\tcores",
		scale:      float64(weakVirtualPerRank) / float64(perRankReal),
	}
	model := simnet.SuperMUC(ranksPerNodeFig23, true)
	for _, n := range nodes {
		p := n * ranksPerNodeFig23
		s.rows = append(s.rows, Trial{P: p, N: p * perRankReal, Model: model,
			Spec: workload.Spec{Dist: workload.Uniform, Seed: o.Seed + uint64(n), Span: 1e9}})
		s.places = append(s.places, fmt.Sprintf("%d\t%d", n, p))
	}
	return s
}

// timeTable prints Fig. 2(a) or 3(a): median execution time (95% CI) of
// dhsort (DASH) and HSS (the Charm++ comparator), with dhsort's speedup and
// parallel efficiency over the first point under strong scaling, and both
// sorters' weak-scaling efficiency under weak scaling.
func timeTable(o Options, s scaling) error {
	cfg := core.Config{Threads: o.threads(), VirtualScale: s.scale}
	grid, err := sweep(s.rows, []Column{{"dhsort", "dhsort", cfg}, {"hss", "hss", cfg}}, o.reps())
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "%s\nmodel: SuperMUC Phase 2, %d ranks/node, PGAS intra-node; %d reps%s\n\n",
		s.timeTitle, ranksPerNodeFig23, o.reps(), s.repsNote)
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	if s.weak {
		fmt.Fprintf(tw, "%s\tdhsort s\t[CI]\tweak eff\thss s\t[CI]\tweak eff\n", s.head)
	} else {
		fmt.Fprintf(tw, "%s\tdhsort s\t[CI]\thss s\t[CI]\tdhsort speedup\tefficiency\n", s.head)
	}
	ci := func(m stats.Summary) string {
		return fmt.Sprintf("%s\t[%s,%s]", seconds(m.Median), seconds(m.CILow), seconds(m.CIHigh))
	}
	var dhBase, hsBase stats.Summary
	for i, row := range grid {
		dh, hs := stats.Summarize(row[0].Runs), stats.Summarize(row[1].Runs)
		if i == 0 {
			dhBase, hsBase = dh, hs
		}
		if s.weak {
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%s\t%.2f\n", s.places[i],
				ci(dh), stats.WeakEfficiency(dhBase.Median, dh.Median),
				ci(hs), stats.WeakEfficiency(hsBase.Median, hs.Median))
		} else {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f\t%.2f\n", s.places[i], ci(dh), ci(hs),
				stats.Speedup(dhBase.Median, dh.Median),
				stats.Efficiency(dhBase.Median, s.rows[0].P, dh.Median, s.rows[i].P))
		}
	}
	return tw.Flush()
}

// phaseTable prints Fig. 2(b) or 3(b): dhsort's per-phase fractions and
// refinement rounds, and under weak scaling the exchanged volume.
func phaseTable(o Options, s scaling) error {
	grid, err := sweep(s.rows, dhsortCols(o, s.scale, core.Config{}), 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "%s\n\n", s.phaseTitle)
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tLocalSort\tHistogram\tExchange\tMerge\tOther\titers", s.head)
	if s.weak {
		fmt.Fprintf(tw, "\texchanged GiB")
	}
	fmt.Fprintln(tw)
	for i, row := range grid {
		m := row[0].Summary
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%d", s.places[i],
			100*m.Fraction(metrics.LocalSort), 100*m.Fraction(metrics.Histogram),
			100*m.Fraction(metrics.Exchange), 100*m.Fraction(metrics.Merge),
			100*m.Fraction(metrics.Other), m.Iterations)
		if s.weak {
			fmt.Fprintf(tw, "\t%.1f", float64(m.ExchangedBytes)/(1<<30))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Fig2a prints the strong-scaling comparison of Fig. 2(a).
func Fig2a(o Options) error { return timeTable(o, strongScaling(o)) }

// Fig2b prints the strong-scaling phase fractions of Fig. 2(b):
// histogramming grows to dominate beyond ~2000 ranks while the exchange
// share stays roughly stable.
func Fig2b(o Options) error { return phaseTable(o, strongScaling(o)) }

// Fig3a prints the weak-scaling study of Fig. 3(a): 128 MiB of uint64 keys
// per rank (virtual), 16 ranks per node, 1..128 nodes.  The paper reports
// 2.3 s on one node rising to 4.6 s at 128 nodes for DASH, with HSS
// (Charm++) volatile and slower.
func Fig3a(o Options) error { return timeTable(o, weakScaling(o)) }

// Fig3b prints the weak-scaling phase fractions of Fig. 3(b): local sort
// and the ALLTOALLV exchange dominate; histogramming stays amortized.
func Fig3b(o Options) error { return phaseTable(o, weakScaling(o)) }
