// Command bench regenerates the paper's evaluation artifacts and the
// machine-readable benchmark trajectory.
//
// Text experiments (tables matching the paper's figures):
//
//	bench -exp fig2a            # one experiment (see -list)
//	bench -exp all -full -reps 10
//
// Machine-readable metrics suite (BENCH_*.json, schema dhsort-bench/v1):
//
//	bench -json BENCH_full.json              # run the suite, write JSON
//	bench -json BENCH_ci.json -smoke         # tiny CI grid
//	bench -compare old.json -json new.json   # run, write, diff vs old
//	bench -compare old.json -with new.json   # diff two existing files
//	bench -compare BENCH_full.json -with BENCH_ci.json -subset
//	                                         # gate only the grid points both cover
//
// -compare exits with status 3 when any tracked metric regressed by more
// than -threshold (default 10%) or a record disappeared (-subset waives
// the disappearance check so a smoke document can gate against the full
// baseline).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dhsort/internal/bench"
	"dhsort/internal/fault"
	"dhsort/internal/metrics"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment name, or 'all'")
		list      = flag.Bool("list", false, "list experiments and exit")
		full      = flag.Bool("full", false, "paper-scale parameter sweep (slow)")
		reps      = flag.Int("reps", 3, "repetitions per point (the paper uses 10)")
		seed      = flag.Uint64("seed", 42, "base workload seed")
		threads   = flag.Int("threads", 1, "intra-rank worker budget for the dhsort/hss compute kernels (1 keeps modelled times machine-independent)")
		jsonOut   = flag.String("json", "", "run the metrics suite and write the JSON document to this path")
		smoke     = flag.Bool("smoke", false, "with -json/-compare: tiny grid for CI smoke runs")
		compare   = flag.String("compare", "", "baseline JSON document to diff against (regression gate)")
		with      = flag.String("with", "", "with -compare: diff this existing document instead of running the suite")
		subset    = flag.Bool("subset", false, "with -compare: gate only the baseline records the new document covers (smoke vs full)")
		threshold = flag.Float64("threshold", metrics.DefaultThreshold, "relative growth counting as a regression")
		fspec     = flag.String("fault", "", "seeded fault schedule applied to the metrics suite (and as an extra row of the fault experiment), e.g. drop=0.01,seed=7")
		recovery  = flag.String("recovery", "respawn", "permanent-death (die=) recovery mode for the -fault schedule: respawn|shrink")
	)
	flag.Parse()

	plan, err := fault.Parse(*fspec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("  %-10s %s\n", e.Name, e.Description)
		}
		return
	}

	opts := bench.Options{Out: os.Stdout, Reps: *reps, Full: *full, Seed: *seed, Threads: *threads, Fault: plan, Recovery: *recovery}
	if *jsonOut != "" || *compare != "" {
		opts.Smoke = *smoke
		os.Exit(metricsMode(opts, *jsonOut, *compare, *with, *subset, *threshold))
	}

	run := func(e bench.Experiment) {
		fmt.Printf("=== %s: %s\n", e.Name, e.Description)
		start := time.Now()
		if err := e.Run(opts); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Printf("--- %s done in %v\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range bench.Experiments {
			run(e)
		}
		return
	}
	e, ok := bench.Find(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	run(e)
}

// metricsMode runs the JSON suite and/or the regression gate; the return
// value is the process exit status (0 ok, 1 error, 3 regression).
func metricsMode(opts bench.Options, jsonOut, compare, with string, subset bool, threshold float64) int {
	var doc metrics.Document
	switch {
	case with != "":
		if compare == "" {
			fmt.Fprintln(os.Stderr, "bench: -with requires -compare")
			return 2
		}
		d, err := readDocument(with)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		doc = d
	default:
		fmt.Printf("=== metrics suite (%s grid)\n", map[bool]string{true: "smoke", false: "full"}[opts.Smoke])
		start := time.Now()
		d, err := bench.RunSuite(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		doc = d
		fmt.Printf("--- suite done in %v (%d records)\n", time.Since(start).Round(time.Millisecond), len(doc.Records))
	}

	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		err = metrics.Encode(f, doc)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}

	if compare == "" {
		return 0
	}
	old, err := readDocument(compare)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cmp := metrics.Compare
	if subset {
		cmp = metrics.CompareSubset
	}
	res, err := cmp(old, doc, threshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res.Report(os.Stdout)
	if res.Regressed() {
		fmt.Fprintln(os.Stderr, "bench: REGRESSION against", compare)
		return 3
	}
	return 0
}

func readDocument(path string) (metrics.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return metrics.Document{}, err
	}
	defer f.Close()
	return metrics.Decode(f)
}
