package bench

import (
	"fmt"
	"text/tabwriter"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

// ExchangeStudy is the exchange-backend ablation (§VI): the same sort runs
// with the two-sided 1-factor ALLTOALLV, the fused sendrecv overlap
// (§VI-E1), and the one-sided RMA put+notify exchange, under both intra-node
// pricings — PGAS (MPI-3 shared-memory windows: an intra-node put is a plain
// memcpy with no rendezvous) and pure MPI (every put completion emulated by
// a flush round-trip).  The paper's claim is directional: one-sided puts win
// exactly where the rendezvous they eliminate was being paid, i.e. with
// shared-memory windows inside the node, and lose when the RMA layer must
// synthesize completion from two-sided traffic.
func ExchangeStudy(o Options) error {
	realTotal := 1 << 17

	fmt.Fprintf(o.Out, "ablation — data-exchange backends under both intra-node pricings\n")
	fmt.Fprintf(o.Out, "(smoke-sized blocks: %d keys per rank; times are modelled, not scaled)\n\n", realTotal/16)
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "model\tcores\tnodes\talltoallv\tfused\trma-put\n")

	for _, pgas := range []bool{true, false} {
		model := simnet.SuperMUC(16, pgas)
		name := "pgas"
		if !pgas {
			name = "mpi"
		}
		for _, p := range []int{16, 64} {
			t := Trial{P: p, N: realTotal, Model: model,
				Spec: workload.Spec{Dist: workload.Uniform, Seed: o.Seed + uint64(p), Span: 1e9}}
			row := make([]time.Duration, 0, 3)
			for _, cfg := range []core.Config{
				{Exchange: comm.AlltoallOneFactor, Threads: o.threads()},
				{Merge: core.MergeOverlap, Threads: o.threads()},
				{Exchange: comm.ExchangeRMAPut, Threads: o.threads()},
			} {
				pt, err := Run(Sorters["dhsort"], cfg, t)
				if err != nil {
					return err
				}
				row = append(row, pt.Makespan.Round(time.Microsecond))
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%v\t%v\t%v\n", name, p, (p+15)/16, row[0], row[1], row[2])
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "\nexpected: under PGAS pricing the one-sided exchange beats the two-sided\n")
	fmt.Fprintf(o.Out, "ALLTOALLV on the intra-node configuration (puts are memcpys; no\n")
	fmt.Fprintf(o.Out, "rendezvous, no double copy); under pure-MPI pricing the emulated\n")
	fmt.Fprintf(o.Out, "notify/flush traffic costs more than the rendezvous it replaced and\n")
	fmt.Fprintf(o.Out, "rma-put falls behind both two-sided schedules.\n")
	return nil
}
