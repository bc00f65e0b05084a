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

	var rows []Trial
	for _, pgas := range []bool{true, false} {
		for _, p := range []int{16, 64} {
			rows = append(rows, Trial{P: p, N: realTotal, Model: simnet.SuperMUC(16, pgas),
				Spec: workload.Spec{Dist: workload.Uniform, Seed: o.Seed + uint64(p), Span: 1e9}})
		}
	}
	grid, err := sweep(rows, dhsortCols(o, 0, core.Config{Exchange: comm.AlltoallOneFactor},
		core.Config{Merge: core.MergeOverlap}, core.Config{Exchange: comm.ExchangeRMAPut}), 1)
	if err != nil {
		return err
	}
	for i, row := range grid {
		name, p := "mpi", rows[i].P
		if rows[i].Model.PGAS {
			name = "pgas"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d", name, p, (p+15)/16)
		for _, pt := range row {
			fmt.Fprintf(tw, "\t%v", pt.Makespan.Round(time.Microsecond))
		}
		fmt.Fprintln(tw)
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

// Overlap is the §VI-E1 ablation: the paper sketches replacing the
// monolithic ALLTOALLV + merge with explicit exchange rounds that merge
// received chunks while later transfers are in flight, and with schedule
// choices (store-and-forward for small N/P, 1-factor for large).  This
// experiment compares the merge strategies and exchange schedules under
// the cost model; the alternative schedules run the binary merge tree.
func Overlap(o Options) error {
	model := simnet.SuperMUC(16, true)
	realTotal := 1 << 19
	scale := float64(strongVirtualTotal) / float64(realTotal)

	fmt.Fprintf(o.Out, "ablation — exchange/merge strategies (§V-C, §VI-E1), N = 2^31 keys (virtual)\n\n")
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "cores\tresort s\tbinary-tree s\toverlap s\tbruck-exchange s\thierarchical s\n")

	var rows []Trial
	for _, p := range []int{64, 256} {
		rows = append(rows, Trial{P: p, N: realTotal, Model: model,
			Spec: workload.Spec{Dist: workload.Uniform, Seed: o.Seed + uint64(p), Span: 1e9}})
	}
	grid, err := sweep(rows, dhsortCols(o, scale,
		core.Config{Merge: core.MergeResort},
		core.Config{Merge: core.MergeBinaryTree},
		core.Config{Merge: core.MergeOverlap},
		core.Config{Merge: core.MergeBinaryTree, Exchange: comm.AlltoallBruck},
		core.Config{Merge: core.MergeBinaryTree, Exchange: comm.AlltoallHierarchical}), 1)
	if err != nil {
		return err
	}
	for i, row := range grid {
		fmt.Fprintf(tw, "%d", rows[i].P)
		for _, pt := range row {
			fmt.Fprintf(tw, "\t%s", seconds(pt.Makespan))
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "\nexpected: the re-sort, priced as the radix kernel, beats the binary merge\n")
	fmt.Fprintf(o.Out, "tree, and the fused overlap exchange loses to both; Bruck pays log-P extra\n")
	fmt.Fprintf(o.Out, "volume and leader-based aggregation serializes the node's bulk volume\n")
	fmt.Fprintf(o.Out, "through one NIC flow — both lose on large blocks and pay off only in\n")
	fmt.Fprintf(o.Out, "the message-dominated regime (see -exp collectives).\n")
	return nil
}
