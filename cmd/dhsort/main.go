// Command dhsort sorts a generated workload with the distributed histogram
// sort and prints timing, phase breakdown and verification results.
//
// Usage:
//
//	dhsort -p 64 -n 1000000 -dist uniform
//	dhsort -p 2048 -n 4194304 -model pgas -scale 1024   # virtual SuperMUC time
package main

import (
	"bufio"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"dhsort"
	"dhsort/internal/bench"
	"dhsort/internal/fault"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

func main() {
	// Service-client subcommands (submit/status/result/health/stats) talk to
	// a dhsortd server; everything else is the original local runner.
	if len(os.Args) > 1 {
		if code, ok := runClientCommand(os.Args[1], os.Args[2:]); ok {
			os.Exit(code)
		}
	}
	var (
		p     = flag.Int("p", 8, "number of ranks")
		n     = flag.Int("n", 1<<20, "total number of keys")
		dist  = flag.String("dist", "uniform", "distribution: uniform|normal|zipf|nearly-sorted|duplicate-heavy|all-equal")
		span  = flag.Uint64("span", 1e9, "key span (0 = full uint64 range)")
		seed  = flag.Uint64("seed", 1, "workload seed")
		alg   = flag.String("alg", "dhsort", "algorithm: "+strings.Join(slices.Sorted(maps.Keys(bench.Sorters)), "|"))
		model = flag.String("model", "none", "cost model: none (real time) | pgas | mpi")
		rpn   = flag.Int("ranks-per-node", 16, "ranks per node for the cost model")
		fspec = flag.String("fault", "", "seeded fault schedule, e.g. drop=0.01,dup=0.005,delay=0.02:50us,seed=7,crash=3@2,stall=1@1:200us,die=5@1 (empty = fault-free)")
		dump  = flag.String("dump", "", "write the sorted output keys, one decimal per line in world-rank order, to this file")
		cfg   = dhsort.Config{VirtualScale: 1, Probes: 1, Recovery: dhsort.RecoveryRespawn}
	)
	// The sort settings bind straight into the one configuration dhsort and
	// hss share, and cfg.Validate checks them; what the CLI checks itself
	// below is the run's shape (-alg, -dist, -p, -n) and which -alg takes
	// which flags, all before any rank starts.
	flag.Float64Var(&cfg.Epsilon, "eps", cfg.Epsilon, "load-balance threshold (0 = perfect partitioning)")
	flag.IntVar(&cfg.Probes, "probes", cfg.Probes, "histogram probes per unfinished splitter per round for dhsort/hss (1 = bisection)")
	flag.TextVar(&cfg.Merge, "merge", cfg.Merge, "local merge: resort|binary-tree|overlap")
	flag.TextVar(&cfg.Exchange, "exchange", cfg.Exchange, "data exchange: auto|pairwise|one-factor|bruck|hierarchical|rma-put")
	flag.Float64Var(&cfg.VirtualScale, "scale", cfg.VirtualScale, "virtual data-scale multiplier (with a cost model)")
	flag.IntVar(&cfg.Threads, "threads", cfg.Threads, "intra-rank worker budget for dhsort/hss/samplesort compute kernels (0 = GOMAXPROCS; set 1 for reproducible virtual clocks)")
	flag.StringVar(&cfg.Kernel, "kernel", cfg.Kernel, "force the dhsort/hss/samplesort Local Sort kernel: radix|task-merge|introsort (empty = dispatch by key type)")
	flag.StringVar(&cfg.Recovery, "recovery", cfg.Recovery, "permanent-death (die=) recovery: respawn (death is fatal) | shrink (continue on the survivors)")
	flag.Int64Var(&cfg.MemBudget, "mem-budget", cfg.MemBudget, "per-rank in-memory budget in bytes; above it local sort spills sorted runs to the scratch store and the exchange merges from disk (0 = fully resident; dhsort/hss/samplesort only)")
	flag.StringVar(&cfg.SpillDir, "spill-dir", cfg.SpillDir, "scratch directory for the spilled runs and checkpoint shards of a -mem-budget sort (empty = run-private in-memory store)")
	flag.IntVar(&cfg.SpillFanIn, "spill-fan-in", cfg.SpillFanIn, "k-way merge fan-in for spilled runs (0 = default 8)")
	flag.Parse()

	m, err := simnet.ParseModel(*model, *rpn)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dhsort: unknown model %q\n", *model)
		os.Exit(2)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "dhsort:", err)
		os.Exit(2)
	}
	sorter, ok := bench.Sorters[*alg]
	if !ok {
		fmt.Fprintf(os.Stderr, "dhsort: unknown algorithm %q\n", *alg)
		os.Exit(2)
	}
	if !slices.Contains(workload.Distributions, workload.Distribution(*dist)) {
		fmt.Fprintf(os.Stderr, "dhsort: unknown distribution %q\n", *dist)
		os.Exit(2)
	}
	if *p < 1 || *n < 0 {
		fmt.Fprintf(os.Stderr, "dhsort: need -p >= 1 and -n >= 0, got -p %d -n %d\n", *p, *n)
		os.Exit(2)
	}
	plan, err := fault.Parse(*fspec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhsort:", err)
		os.Exit(2)
	}
	if cfg.Recovery == dhsort.RecoveryShrink && !sorter.Pipeline {
		fmt.Fprintf(os.Stderr, "dhsort: -recovery shrink is only supported by alg %s, not %q\n", pipelines(), *alg)
		os.Exit(2)
	}
	if (cfg.MemBudget > 0 || cfg.SpillDir != "" || cfg.SpillFanIn != 0) && !sorter.Pipeline {
		fmt.Fprintf(os.Stderr, "dhsort: the out-of-core flags are only supported by alg %s, not %q\n", pipelines(), *alg)
		os.Exit(2)
	}
	if (cfg.SpillDir != "" || cfg.SpillFanIn != 0) && cfg.MemBudget == 0 {
		fmt.Fprintln(os.Stderr, "dhsort: -spill-dir and -spill-fan-in configure a spilled sort and need -mem-budget > 0")
		os.Exit(2)
	}
	wall := time.Now()
	res, err := bench.Run(sorter, cfg, bench.Trial{P: *p, N: *n, Model: m,
		Spec: workload.Spec{Dist: workload.Distribution(*dist), Seed: *seed, Span: *span}, Plan: plan})
	elapsed := time.Since(wall)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhsort:", err)
		os.Exit(1)
	}
	// Run checked the global order; at ε = 0 an exact sorter also owes
	// every rank its input capacity, unless a shrink recovery redistributed
	// it.
	verified := true
	if sorter.Exact && cfg.Epsilon == 0 && res.Summary.Survivors == 0 {
		for r, out := range res.Outs {
			verified = verified && len(out) == workload.LocalSize(*n, *p, r)
		}
	}
	s := res.Summary
	fmt.Printf("sorted %d %s keys on %d ranks (alg=%s, eps=%v, merge=%s)\n", *n, *dist, *p, *alg, cfg.Epsilon, cfg.Merge)
	if s.ExchangeAlg != "" {
		fmt.Printf("data exchange: %s (effective)\n", s.ExchangeAlg)
	}
	if s.LocalSortKernel != "" {
		fmt.Printf("local sort kernel: %s (%d threads)\n", s.LocalSortKernel, s.Threads)
	}
	if s.SpilledRuns > 0 {
		fmt.Printf("out-of-core: %d spilled runs, %.2f MiB scratch traffic (budget %d B/rank)\n",
			s.SpilledRuns, float64(s.SpillBytes)/(1<<20), cfg.MemBudget)
	}
	if m != nil {
		fmt.Printf("virtual makespan: %v (SuperMUC model, %d ranks/node, scale x%g; wall %v)\n",
			res.Makespan.Round(time.Microsecond), *rpn, cfg.VirtualScale, elapsed.Round(time.Millisecond))
	} else {
		fmt.Printf("wall time: %v\n", elapsed.Round(time.Millisecond))
	}
	fmt.Printf("histogram iterations: %d\n", s.Iterations)
	fmt.Printf("load imbalance: time %.3f, output %.3f (1.000 = balanced)\n", s.TimeImbalance, s.OutputImbalance)
	fmt.Println("phase breakdown (mean across ranks; messages/bytes are totals):")
	for ph := metrics.Phase(0); ph < metrics.NumPhases; ph++ {
		var msgs, bytes int64
		for _, lt := range s.Links[ph] {
			msgs += lt.Messages
			bytes += lt.Bytes
		}
		fmt.Printf("  %-10s %8v  %5.1f%%  %8d msgs  %8.2f MiB\n",
			ph, s.Times[ph].Round(time.Microsecond), 100*s.Fraction(ph), msgs, float64(bytes)/(1<<20))
	}
	st := res.Stats
	total := st.Total()
	fmt.Printf("communication by link class (%d messages, %.2f MiB total):\n",
		total.Messages, float64(total.Bytes)/(1<<20))
	for _, lc := range simnet.LinkClasses {
		if l := st.Links[lc]; l.Messages != 0 || l.Puts != 0 {
			fmt.Printf("  %-10s %8d msgs  %8.2f MiB\n", lc, l.Messages, float64(l.Bytes)/(1<<20))
		}
	}
	if total.Puts > 0 {
		fmt.Printf("one-sided traffic (%d puts, %.2f MiB, %d notifies):\n",
			total.Puts, float64(total.PutBytes)/(1<<20), total.Notifies)
		for _, lc := range simnet.LinkClasses {
			if l := st.Links[lc]; l.Puts != 0 {
				fmt.Printf("  %-10s %8d puts  %8.2f MiB  %8d notifies\n",
					lc, l.Puts, float64(l.PutBytes)/(1<<20), l.Notifies)
			}
		}
	}
	if plan.Enabled() {
		f := st.Fault
		fmt.Printf("fault plane (%s):\n", plan)
		fmt.Printf("  injected:   %d drops, %d dups, %d delays, %d reorders\n",
			f.Drops, f.Dups, f.Delays, f.Reorders)
		fmt.Printf("  resilience: %d retries (%v waited), %d dedup hits\n",
			f.Retries, time.Duration(f.RetryNS).Round(time.Microsecond), f.Dedup)
		fmt.Printf("  checkpoint: %d checkpoints (%.2f MiB), %d recoveries (%v), %d stalls (%v)\n",
			s.Fault.Checkpoints, float64(s.Fault.CheckpointBytes)/(1<<20),
			s.Fault.Recoveries, time.Duration(s.Fault.RecoveryNS).Round(time.Microsecond),
			s.Fault.Stalls, time.Duration(s.Fault.StallNS).Round(time.Microsecond))
		if s.Fault.Deaths > 0 {
			fmt.Printf("  shrink:     %d deaths (recovery=%s), %d agree rounds, %d shrinks (%v), %d survivors\n",
				s.Fault.Deaths, cfg.Recovery, s.Fault.AgreeRounds, s.Fault.Shrinks,
				time.Duration(s.Fault.ShrinkNS).Round(time.Microsecond), s.Survivors)
		}
	}
	if *dump != "" {
		if err := writeDump(*dump, res.Outs); err != nil {
			fmt.Fprintln(os.Stderr, "dhsort: dump:", err)
			os.Exit(1)
		}
	}
	if verified {
		fmt.Println("verification: globally sorted, partition sizes OK")
	} else {
		fmt.Println("verification: FAILED")
		os.Exit(1)
	}
}

// pipelines names the sorters that run core's pipeline, for the messages
// refusing the flags only they take: "dhsort, hss and samplesort".
func pipelines() string {
	var names []string
	for _, name := range slices.Sorted(maps.Keys(bench.Sorters)) {
		if bench.Sorters[name].Pipeline {
			names = append(names, name)
		}
	}
	return strings.Join(names[:len(names)-1], ", ") + " and " + names[len(names)-1]
}

// writeDump writes the output keys in world-rank order, one decimal per
// line — the format readKeys and the CI multiset checks consume.
func writeDump(path string, outs [][]uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var buf []byte
	for _, ks := range outs {
		for _, k := range ks {
			buf = strconv.AppendUint(buf[:0], k, 10)
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
