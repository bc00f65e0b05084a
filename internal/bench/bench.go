// Package bench regenerates every table and figure of the paper's
// evaluation (§VI).  Each experiment prints the same rows or series the
// paper reports; EXPERIMENTS.md records the expected shapes and the
// paper-vs-measured comparison.  Every experiment and the metrics suite
// measure through one loop, sweep: rows of trials × columns of a named
// sorter and its configuration.  Sorters and Run, the one sorter table and
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
	// suite it restricts the grid to the Configs entries that can shrink,
	// and the records carry the recovery mode and survivor counts.
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
	Name, Description string
	Run               func(Options) error
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

// Sorter is one distributed sorter of the table: Sort sorts one rank's keys
// under cfg and returns the rank's output and the communicator it lives on
// (c itself unless a shrink recovery replaced it); seed is the workload
// seed, from which the sampled sorters draw.
type Sorter struct {
	Sort func(c *comm.Comm, local []uint64, cfg core.Config, seed uint64) ([]uint64, *comm.Comm, error)
	// Pipeline marks the sorters that run core's supersteps and take all
	// of cfg: they spill under MemBudget and shrink under RecoveryShrink.
	Pipeline bool
	// Exact marks the sorters that partition exactly: at ε = 0 every rank
	// ends with as many keys as it held.
	Exact bool
}

// Sorters is every distributed sorter of this repository by name: the one
// place the CLI, the experiments, the metrics suite and the chaos oracle
// pick an algorithm.  hyksort reads cfg's ForceUnique, VirtualScale and
// Recorder, bitonic its VirtualScale and Recorder.
var Sorters = map[string]Sorter{
	"dhsort": {func(c *comm.Comm, local []uint64, cfg core.Config, _ uint64) ([]uint64, *comm.Comm, error) {
		return core.SortResilient(c, local, keys.Uint64{}, cfg)
	}, true, true},
	"hss": {func(c *comm.Comm, local []uint64, cfg core.Config, seed uint64) ([]uint64, *comm.Comm, error) {
		return hss.SortResilient(c, local, keys.Uint64{}, cfg, seed)
	}, true, true},
	"samplesort": {func(c *comm.Comm, local []uint64, cfg core.Config, _ uint64) ([]uint64, *comm.Comm, error) {
		return samplesort.SortResilient(c, local, keys.Uint64{}, cfg)
	}, true, false},
	"hyksort": {func(c *comm.Comm, local []uint64, cfg core.Config, _ uint64) ([]uint64, *comm.Comm, error) {
		out, err := hyksort.Sort(c, local, keys.Uint64{}, cfg)
		return out, c, err
	}, false, false},
	"bitonic": {func(c *comm.Comm, local []uint64, cfg core.Config, _ uint64) ([]uint64, *comm.Comm, error) {
		out, err := bitonic.Sort(c, local, keys.Uint64{}, cfg)
		return out, c, err
	}, false, false},
}

// Column is one measured configuration: the Sorters entry it runs, the
// name its rows or records carry, and its settings.
type Column struct {
	Name, Sorter string
	Cfg          core.Config
}

// Configs is the one table of the suite's named configurations, in record
// order, each setting only what tells it apart; the chaos oracle composes
// over some of them by name.  dhsort-spill's budget is one eighth of the
// suite's input.
var Configs = []Column{
	{"dhsort", "dhsort", core.Config{}},
	{"dhsort-fused", "dhsort", core.Config{Merge: core.MergeOverlap}},
	{"dhsort-rma", "dhsort", core.Config{Exchange: comm.ExchangeRMAPut}},
	{"dhsort-p8", "dhsort", core.Config{Probes: 8}},
	{"dhsort-spill", "dhsort", core.Config{MemBudget: suitePerRank}},
	{"hss", "hss", core.Config{}},
	{"samplesort", "samplesort", core.Config{}},
	{"hyksort", "hyksort", core.Config{}},
	{"bitonic", "bitonic", core.Config{}},
}

// Trial is one run: P ranks holding N keys in total (split by
// workload.LocalSize) drawn from Spec, priced by Model under a seeded fault
// Plan (zero: fault-free).
type Trial struct {
	P, N  int
	Model *simnet.CostModel
	Spec  workload.Spec
	Plan  fault.Plan
	// Post, when set, runs on every rank whose output verified, with the
	// trial being run; the partition it returns is the rank's output.  A
	// post step that spawns ranks must wait for them before it returns
	// (Grow does), so that every rank has ended when Run reads the world.
	Post func(t Trial, w *comm.World, c *comm.Comm, rec *metrics.Recorder, out []uint64) ([]uint64, error)
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
		rc.Recorder = rec
		out, eff, err := s.Sort(c, local, rc, t.Spec.Seed)
		if err != nil {
			return err
		}
		rec.Finish()
		rec.SetElements(len(out))
		if !core.IsGloballySorted(eff, out, keys.Uint64{}) {
			return errors.New("bench: the sort produced an unsorted result")
		}
		if t.Post != nil {
			if out, err = t.Post(t, w, c, rec, out); err != nil {
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

// point is one cell of a sweep: every repetition's makespan and the first
// repetition's result (deterministic under the model).
type point struct {
	Runs []time.Duration
	Result
}

// sweep is the one measurement loop of the experiments and the suite: it
// runs reps repetitions (distinct workload seeds) of every column on every
// row and returns the points by row, then column.
func sweep(rows []Trial, cols []Column, reps int) ([][]point, error) {
	grid := make([][]point, len(rows))
	for i, t := range rows {
		grid[i] = make([]point, len(cols))
		for j, col := range cols {
			pt := &grid[i][j]
			for rep := range reps {
				tr := t
				tr.Spec.Seed += uint64(rep) * 1000003
				res, err := Run(Sorters[col.Sorter], col.Cfg, tr)
				if err != nil {
					return nil, fmt.Errorf("%s p=%d: %w", col.Name, t.P, err)
				}
				pt.Runs = append(pt.Runs, res.Makespan)
				if rep == 0 {
					pt.Result = res
				}
			}
		}
	}
	return grid, nil
}

// dhsortCols returns one dhsort column per configuration, each with the
// options' thread budget and bulk data priced at scale.
func dhsortCols(o Options, scale float64, cfgs ...core.Config) []Column {
	cols := make([]Column, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Threads, cfg.VirtualScale = o.threads(), scale
		cols[i] = Column{"dhsort", "dhsort", cfg}
	}
	return cols
}

// seconds renders a duration in seconds with 3 decimals.
func seconds(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}
