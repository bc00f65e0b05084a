// Command benchmark is the repository's wall-clock benchmark: four
// workloads, five bounded end-to-end metrics from an untraced run, and a
// separate traced run that times calls into each layer's public functions
// from this package's own files.  See README.md.
//
//	go run ./benchmark                                  every workload, untraced
//	go run ./benchmark -trace 1                         every workload, traced (per-layer metrics)
//	go run ./benchmark -aa                              untraced set twice, compared against the bounds
//	go run ./benchmark -quick                           1/20 of the measuring time (smoke)
//	go run ./benchmark -workload sort-bulk -seed 7 -seconds 20 -trace 0
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind, inside the directory the
// benchmark is started from: per-run scratch (removed on exit) and the
// Chrome trace of the last traced run of each workload.
const buildDir = ".bench_build"

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 20

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	traceOut string
	aa       bool
	quick    bool
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: each in a child process)")
	flag.Uint64Var(&o.seed, "seed", 1, "derives every input")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measuring time per workload")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace-event file of a traced run (default "+buildDir+"/trace-<workload>.json)")
	flag.BoolVar(&o.aa, "aa", false, "run the untraced set twice and compare the two against the bounds")
	flag.BoolVar(&o.quick, "quick", false, "1/20 of -seconds: a smoke run, not a measurement")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		return 2
	}
	if o.quick {
		o.seconds /= 20
	}
	var err error
	switch {
	case o.workload != "":
		err = runOne(o)
	case o.aa:
		err = runAA(o)
	default:
		_, err = runAll(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runCtx is what a workload gets from the driver.
type runCtx struct {
	seed    uint64
	seconds time.Duration
	scratch string // per-run directory under buildDir, removed on exit

	copyBound float64 // GB/s, measured on first use (see copyGBs)
}

// logf prints one line of the human-readable report.
func (rc *runCtx) logf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// newScratch creates this process's scratch directory and returns it with
// its cleanup.  The cleanup also runs on SIGINT/SIGTERM, so spill runs never
// outlive the process.
func newScratch() (string, func(), error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return "", nil, err
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sigc; ok {
			os.RemoveAll(dir)
			os.Exit(130)
		}
	}()
	cleanup := func() {
		signal.Stop(sigc)
		close(sigc)
		os.RemoveAll(dir)
	}
	return dir, cleanup, nil
}

// runOne runs one workload in this process and prints the result line.
func runOne(o options) error {
	def, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	scratch, cleanup, err := newScratch()
	if err != nil {
		return err
	}
	defer cleanup()
	rc := &runCtx{seed: o.seed, seconds: time.Duration(o.seconds * float64(time.Second)), scratch: scratch}
	rc.logf("workload %s  seed %d  seconds %g  trace %d", def.name, o.seed, o.seconds, o.trace)

	var res result
	if o.trace == 0 {
		res, err = runUntraced(def, rc)
	} else {
		out := o.traceOut
		if out == "" {
			out = filepath.Join(buildDir, "trace-"+def.name+".json")
		}
		res, err = runTraced(def, rc, out)
	}
	if err != nil {
		return err
	}
	if err := res.print(os.Stdout); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed verification", def.name, res.Failed, res.Attempted)
	}
	return nil
}
