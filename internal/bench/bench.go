// Package bench regenerates every table and figure of the paper's
// evaluation (§VI).  Each experiment prints the same rows or series the
// paper reports; EXPERIMENTS.md records the expected shapes and the
// paper-vs-measured comparison.  Sorters and Run, the one sorter table and
// run loop, also serve cmd/dhsort and the chaos oracle.
//
// Scaling experiments run under the simnet virtual clock: the algorithms
// execute for real (data moves, histograms iterate, results are verified)
// on reduced element counts, while Config.VirtualScale prices the bulk
// phases at the paper's data volumes.  Reported times are therefore modeled
// SuperMUC times, expected to match the paper in *shape*, not in absolute
// microseconds.
package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"dhsort/internal/bitonic"
	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/fault"
	"dhsort/internal/hss"
	"dhsort/internal/hyksort"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/samplesort"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

// Options configures an experiment or the metrics suite.
type Options struct {
	// Out receives the experiment's table; RunSuite writes one progress
	// line per measured point to it (nil = quiet).
	Out io.Writer
	// Reps is the number of repetitions per point (different workload
	// seeds); 0 means 3.  The paper uses 10.
	Reps int
	// Full selects the paper-scale parameter sweep of the experiments; the
	// default is a reduced sweep that finishes in a few minutes.
	Full bool
	// Smoke selects the tiny CI grid of the suite (one P, one workload, one
	// rep) instead of the full grid.
	Smoke bool
	// Seed is the base workload seed.
	Seed uint64
	// Threads is the intra-rank worker budget handed to the dhsort/hss
	// compute kernels (core.Config.Threads).  0 means 1: experiments pin
	// the budget rather than inherit GOMAXPROCS so virtual-clock tables
	// are identical on every machine.
	Threads int
	// Fault is a seeded failure schedule (zero = fault-free).  The suite
	// applies it to every measured world and records it in the document's
	// config, so a faulty document is never compared against a fault-free
	// baseline as if the conditions matched; the fault experiment runs it as
	// an extra measured row on top of its built-in degradation grid; other
	// text experiments ignore it.
	Fault fault.Plan
	// Recovery selects the permanent-death recovery mode Fault runs under.
	// A schedule with die= entries requires core.RecoveryShrink; in the
	// suite it restricts the grid to the sorters with a shrink path (dhsort,
	// hss) and the records carry the recovery mode and survivor counts.
	// Ignored for death-free schedules.
	Recovery string
}

func (o Options) reps() int {
	if o.Smoke {
		return 1
	}
	if o.Reps <= 0 {
		return 3
	}
	return o.Reps
}

func (o Options) threads() int {
	if o.Threads <= 0 {
		return 1
	}
	return o.Threads
}

// Experiment is a runnable evaluation artifact.
type Experiment struct {
	Name        string
	Description string
	Run         func(Options) error
}

// Experiments lists every artifact, in the paper's order.
var Experiments = []Experiment{
	{"machine", "Table I — modelled SuperMUC Phase 2 node and network", Machine},
	{"fig2a", "Fig. 2(a) — strong scaling, dhsort vs HSS (Charm++)", Fig2a},
	{"fig2b", "Fig. 2(b) — strong-scaling phase fractions", Fig2b},
	{"fig3a", "Fig. 3(a) — weak scaling, dhsort vs HSS (Charm++)", Fig3a},
	{"fig3b", "Fig. 3(b) — weak-scaling phase fractions", Fig3b},
	{"fig4", "Fig. 4 — shared-memory NUMA study vs PSTL/OpenMP stand-ins", Fig4},
	{"iters", "§V-A — histogramming iteration counts by key width and P", Iters},
	{"merge", "§VI-E — k-way merge study (threads × chunks)", MergeStudy},
	{"local", "ablation — intra-rank kernels: introsort vs LSD radix vs fork-join merge sort", LocalKernels},
	{"normal", "§VI-B — normal-distribution robustness, dhsort vs HSS", NormalStudy},
	{"pgas", "ablation — PGAS shared-memory windows vs pure MPI intra-node", PGAS},
	{"baselines", "ablation — all five sorters on one configuration", Baselines},
	{"overlap", "ablation — exchange/merge strategies incl. fused overlap (§VI-E1)", Overlap},
	{"exchange", "ablation — two-sided ALLTOALLV vs fused overlap vs one-sided RMA put", ExchangeStudy},
	{"collectives", "micro — modelled collective latencies vs rank count", Collectives},
	{"splitters", "ablation — splitter strategies: histogram vs sampled vs selection", Splitters},
	{"split", "ablation — k-ary splitter probing: rounds and Splitting time vs probes per boundary", SplitStudy},
	{"skew", "extension — PGX.D-style duplicate floods: imbalance vs flood fraction by splitter strategy", SkewStudy},
	{"fault", "extension — resilience degradation under seeded fault schedules (drop rate × crashes)", FaultStudy},
	{"shrink", "extension — graceful degradation: crash-respawn vs die-shrink recovery", ShrinkStudy},
	{"ooc", "extension — out-of-core spill: merge fan-in ablation under a 1/8 memory budget", OOCStudy},
	{"elastic", "extension — elastic worlds: mid-stream grow vs static provisioning", ElasticStudy},
}

// Find returns the experiment with the given name.
func Find(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Sorter sorts one rank's keys under cfg and returns the rank's output and
// the communicator it lives on (c itself unless a shrink recovery replaced
// it).  seed is the workload seed; the sampled sorters draw from it.
type Sorter func(c *comm.Comm, local []uint64, cfg core.Config, seed uint64) ([]uint64, *comm.Comm, error)

// Sorters is every distributed sorter of this repository by name: the one
// place the CLI, the experiments, the metrics suite and the chaos oracle
// pick an algorithm.  dhsort, hss and samplesort run core's supersteps and
// take all of cfg; hyksort reads its ForceUnique, VirtualScale and Recorder,
// bitonic its VirtualScale and Recorder.
var Sorters = map[string]Sorter{
	"dhsort": func(c *comm.Comm, local []uint64, cfg core.Config, _ uint64) ([]uint64, *comm.Comm, error) {
		return core.SortResilient(c, local, keys.Uint64{}, cfg)
	},
	"hss": func(c *comm.Comm, local []uint64, cfg core.Config, seed uint64) ([]uint64, *comm.Comm, error) {
		return hss.SortResilient(c, local, keys.Uint64{}, cfg, seed)
	},
	"samplesort": func(c *comm.Comm, local []uint64, cfg core.Config, _ uint64) ([]uint64, *comm.Comm, error) {
		return samplesort.SortResilient(c, local, keys.Uint64{}, cfg)
	},
	"hyksort": func(c *comm.Comm, local []uint64, cfg core.Config, _ uint64) ([]uint64, *comm.Comm, error) {
		out, err := hyksort.Sort(c, local, keys.Uint64{}, cfg)
		return out, c, err
	},
	"bitonic": func(c *comm.Comm, local []uint64, cfg core.Config, _ uint64) ([]uint64, *comm.Comm, error) {
		out, err := bitonic.Sort(c, local, keys.Uint64{}, cfg)
		return out, c, err
	},
}

// Trial is one run: P ranks holding N keys in total (split by
// workload.LocalSize) drawn from Spec, priced by Model with bulk data
// scaled by Scale, under a seeded fault Plan and Recovery mode (zero
// values: fault-free).  Scale and Recovery override the sort
// configuration's.
type Trial struct {
	P, N     int
	Model    *simnet.CostModel
	Scale    float64
	Spec     workload.Spec
	Plan     fault.Plan
	Recovery string
	// Post, when set, runs on every rank whose output verified; the
	// partition it returns is the rank's output.  A post step that spawns
	// ranks must wait for them before it returns, so that every rank has
	// ended when Run reads the makespan, stats and summary.
	Post func(w *comm.World, c *comm.Comm, rec *metrics.Recorder, out []uint64) ([]uint64, error)
}

// Result is one run's outcome.
type Result struct {
	// Outs holds every rank's output by world rank (nil for a rank that
	// died).
	Outs     [][]uint64
	Makespan time.Duration
	Summary  metrics.Summary
	Stats    comm.Stats
}

// Run executes one distributed sort and verifies the output on the
// communicator it ended on.  Recorders are registered before sorting: a
// rank scheduled to die never returns, but its fault tallies must survive.
func Run(s Sorter, cfg core.Config, t Trial) (Result, error) {
	w, err := comm.NewWorldWithFaults(t.P, t.Model, t.Plan)
	if err != nil {
		return Result{}, err
	}
	recs := make([]*metrics.Recorder, t.P)
	outs := make([][]uint64, t.P)
	err = w.Run(func(c *comm.Comm) error {
		local, err := t.Spec.Rank(c.Rank(), workload.LocalSize(t.N, t.P, c.Rank()))
		if err != nil {
			return err
		}
		rec := metrics.ForComm(c)
		recs[c.Rank()] = rec
		rc := cfg
		rc.VirtualScale, rc.Recovery, rc.Recorder = t.Scale, t.Recovery, rec
		out, eff, err := s(c, local, rc, t.Spec.Seed)
		if err != nil {
			return err
		}
		rec.Finish()
		rec.SetElements(len(out))
		if !core.IsGloballySorted(eff, out, keys.Uint64{}) {
			return errors.New("bench: the sort produced an unsorted result")
		}
		if t.Post != nil {
			if out, err = t.Post(w, c, rec, out); err != nil {
				return err
			}
		}
		outs[c.Rank()] = out
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Outs: outs, Makespan: w.Makespan(), Summary: metrics.Summarize(recs), Stats: w.TotalStats()}, nil
}

// series runs reps repetitions of t with distinct workload seeds and
// returns every makespan and the first repetition's result (its phase
// breakdown is deterministic under the model).
func series(s Sorter, cfg core.Config, t Trial, reps int) ([]time.Duration, Result, error) {
	runs := make([]time.Duration, 0, reps)
	var first Result
	for rep := 0; rep < reps; rep++ {
		tr := t
		tr.Spec.Seed = t.Spec.Seed + uint64(rep)*1000003
		res, err := Run(s, cfg, tr)
		if err != nil {
			return nil, Result{}, err
		}
		runs = append(runs, res.Makespan)
		if rep == 0 {
			first = res
		}
	}
	return runs, first, nil
}

// seconds renders a duration in seconds with 3 decimals.
func seconds(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}
