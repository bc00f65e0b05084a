package bench

import (
	"fmt"
	"text/tabwriter"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/hss"
	"dhsort/internal/keys"
	"dhsort/internal/simnet"
	"dhsort/internal/sortutil"
	"dhsort/internal/workload"
)

// Collectives prints the modelled latency of the runtime's collective
// operations versus rank count — the building-block costs behind the
// histogramming analysis of §V-A (one ALLREDUCE per iteration) and the
// exchange analysis of §V-B (two ALLTOALLs plus the ALLTOALLV).
func Collectives(o Options) error {
	fmt.Fprintf(o.Out, "runtime collectives — modelled latency per operation (16 ranks/node, PGAS)\n")
	fmt.Fprintf(o.Out, "payload: 2(P-1) int64 histogram vector for allreduce (the splitter-search\n")
	fmt.Fprintf(o.Out, "message); 16 bytes/peer for alltoall (the bounds exchange)\n\n")
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "ranks\tbarrier\tbcast\tallreduce\tallgather\talltoall\n")

	points := []int{16, 64, 256}
	if o.Full {
		points = append(points, 1024, 2048)
	}
	for _, p := range points {
		var timings [5]time.Duration
		w, err := comm.NewWorld(p, simnet.SuperMUC(16, true))
		if err != nil {
			return err
		}
		err = w.Run(func(c *comm.Comm) error {
			vec := make([]int64, 2*(p-1))
			blocks := make([][]int64, p)
			for i := range blocks {
				blocks[i] = []int64{1, 2}
			}
			for slot, op := range []func(){
				func() { comm.Barrier(c) },
				func() { comm.Bcast(c, 0, vec) },
				func() { comm.Allreduce(c, vec, func(a, b int64) int64 { return a + b }) },
				func() { comm.AllgatherOne(c, int64(c.Rank())) },
				func() { comm.AlltoallWith(c, blocks, comm.AlltoallPairwise, 1, nil) },
			} {
				comm.Barrier(c) // isolate the operation
				start := c.Clock().Now()
				op()
				comm.Barrier(c)
				if c.Rank() == 0 {
					timings[slot] = c.Clock().Now() - start
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d", p)
		for _, d := range timings {
			fmt.Fprintf(tw, "\t%v", d.Round(time.Microsecond))
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "\nexpected: log-P growth for barrier/bcast/allreduce/allgather; linear-in-P\n")
	fmt.Fprintf(o.Out, "for the pairwise alltoall — why histogramming amortizes until P is large.\n")
	return nil
}

// Splitters compares the three splitter-determination strategies on the
// same workload: the paper's bit-bisection histogramming, the sampled
// interpolation of HSS [1], and repeated distributed selection (the direct
// k-way-selection framing of §II) — quantifying why the paper's method
// wins.
func Splitters(o Options) error {
	p, perRank := 64, 2048
	model := simnet.SuperMUC(16, true)
	fmt.Fprintf(o.Out, "ablation — splitter determination strategies, P=%d, %d keys/rank\n\n", p, perRank)
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "distribution\thistogram s\tsampled (HSS) s\tselection s\n")

	for _, dist := range []workload.Distribution{workload.Uniform, workload.Normal, workload.Zipf} {
		spec := workload.Spec{Dist: dist, Seed: o.Seed + 11, Span: 1e9}
		fmt.Fprintf(tw, "%s", dist)
		for _, method := range []string{"histogram", "sampled", "selection"} {
			var took time.Duration
			w, err := comm.NewWorld(p, model)
			if err != nil {
				return err
			}
			err = w.Run(func(c *comm.Comm) error {
				local, err := spec.Rank(c.Rank(), perRank)
				if err != nil {
					return err
				}
				sorted := append([]uint64(nil), local...)
				sortutil.Sort(sorted, keys.Uint64{}.Less)
				targets := make([]int64, p-1)
				for i := range targets {
					targets[i] = int64((i + 1) * perRank)
				}
				start := c.Clock().Now()
				switch method {
				case "histogram":
					core.FindSplitters(c, sorted, keys.Uint64{}, targets, 0, core.Config{Threads: 1})
				case "sampled":
					hss.FindSplittersSampled(c, sorted, keys.Uint64{}, targets, 0,
						hss.Config{Seed: o.Seed, Threads: 1})
				case "selection":
					if _, err := core.FindSplittersViaSelection(c, local, keys.Uint64{}, targets, core.Config{Threads: 1}); err != nil {
						return err
					}
				}
				if c.Rank() == 0 {
					took = c.Clock().Now() - start
				}
				return nil
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "\t%s", seconds(took))
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "\nexpected: histogramming and sampling are close (sampling converges in\n")
	fmt.Fprintf(o.Out, "fewer rounds on friendly data); repeated selection pays O(P) selections\n")
	fmt.Fprintf(o.Out, "of O(log P) rounds each and loses by orders of magnitude.\n")
	return nil
}
