// Package bench regenerates every table and figure of the paper's
// evaluation (§VI).  Each experiment prints the same rows or series the
// paper reports; EXPERIMENTS.md records the expected shapes and the
// paper-vs-measured comparison.
//
// Scaling experiments run under the simnet virtual clock: the algorithms
// execute for real (data moves, histograms iterate, results are verified)
// on reduced element counts, while Config.VirtualScale prices the bulk
// phases at the paper's data volumes.  Reported times are therefore modeled
// SuperMUC times, expected to match the paper in *shape*, not in absolute
// microseconds.
package bench

import (
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

// sorter adapts one distributed sorting algorithm to the shared runner:
// run sorts the rank's keys under t and returns the rank's output and the
// communicator it lives on (c itself unless a shrink recovery replaced it).
type sorter struct {
	name string
	run  func(c *comm.Comm, local []uint64, rec *metrics.Recorder, t trial) ([]uint64, *comm.Comm, error)
}

// coreSorter runs dhsort with cfg.  The trial supplies the virtual scale and
// recovery mode; an unset thread budget is pinned to 1, because Threads == 0
// would fall back to GOMAXPROCS inside core and make modelled times
// machine-dependent.
func coreSorter(name string, cfg core.Config) sorter {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	return sorter{name, func(c *comm.Comm, local []uint64, rec *metrics.Recorder, t trial) ([]uint64, *comm.Comm, error) {
		cc := cfg
		cc.VirtualScale, cc.Recovery, cc.Recorder = t.scale, t.recovery, rec
		return core.SortResilient(c, local, keys.Uint64{}, cc)
	}}
}

// hssSorter is coreSorter for HSS: the same pipeline and configuration
// with the sampled splitter finder, seeded by the trial's workload seed.
func hssSorter(cfg core.Config) sorter {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	return sorter{"hss", func(c *comm.Comm, local []uint64, rec *metrics.Recorder, t trial) ([]uint64, *comm.Comm, error) {
		cc := cfg
		cc.VirtualScale, cc.Recovery, cc.Recorder = t.scale, t.recovery, rec
		return hss.SortResilient(c, local, keys.Uint64{}, cc, t.spec.Seed)
	}}
}

// samplesortSorter is regular-sampling samplesort; with tieBreak the
// splitters are chosen over (key, rank, index) triples, so they can cut
// inside a run of duplicates at the price of 8 extra wire bytes per key.
func samplesortSorter(name string, tieBreak bool) sorter {
	return sorter{name, func(c *comm.Comm, local []uint64, rec *metrics.Recorder, t trial) ([]uint64, *comm.Comm, error) {
		out, err := samplesort.Sort(c, local, keys.Uint64{}, samplesort.Config{
			Variant: samplesort.RegularSampling, VirtualScale: t.scale, Recorder: rec, Seed: t.spec.Seed, TieBreak: tieBreak})
		return out, c, err
	}}
}

func hyksortSorter() sorter {
	return sorter{"hyksort", func(c *comm.Comm, local []uint64, rec *metrics.Recorder, t trial) ([]uint64, *comm.Comm, error) {
		out, err := hyksort.Sort(c, local, keys.Uint64{}, hyksort.Config{VirtualScale: t.scale, Recorder: rec})
		return out, c, err
	}}
}

func bitonicSorter() sorter {
	return sorter{"bitonic", func(c *comm.Comm, local []uint64, rec *metrics.Recorder, t trial) ([]uint64, *comm.Comm, error) {
		out, err := bitonic.Sort(c, local, keys.Uint64{}, bitonic.Config{VirtualScale: t.scale, Recorder: rec})
		return out, c, err
	}}
}

// trial is one measured configuration: p ranks of perRank keys drawn from
// spec, priced by model with bulk data scaled by scale (0 means 1), under a
// seeded fault plan and recovery mode (zero values: fault-free).
type trial struct {
	p, perRank int
	model      *simnet.CostModel
	scale      float64
	spec       workload.Spec
	plan       fault.Plan
	recovery   string
}

// point is one measured run.
type point struct {
	Makespan time.Duration
	Phases   metrics.Summary
}

// run executes one distributed sort and verifies the output invariant on the
// communicator the result lives on.  Recorders are registered before
// sorting: a rank scheduled to die never returns, but its fault tallies must
// survive.
func run(s sorter, t trial) (point, error) {
	w, err := comm.NewWorldWithFaults(t.p, t.model, t.plan)
	if err != nil {
		return point{}, err
	}
	recs := make([]*metrics.Recorder, t.p)
	err = w.Run(func(c *comm.Comm) error {
		local, err := t.spec.Rank(c.Rank(), t.perRank)
		if err != nil {
			return err
		}
		rec := metrics.ForComm(c)
		recs[c.Rank()] = rec
		out, eff, err := s.run(c, local, rec, t)
		if err != nil {
			return err
		}
		rec.Finish()
		rec.SetElements(len(local), len(out))
		if !core.IsGloballySorted(eff, out, keys.Uint64{}) {
			return fmt.Errorf("%s produced an unsorted result", s.name)
		}
		return nil
	})
	if err != nil {
		return point{}, err
	}
	return point{Makespan: w.Makespan(), Phases: metrics.Summarize(recs)}, nil
}

// series runs reps repetitions of t with distinct workload seeds and
// returns every makespan and the first repetition's point (its phase
// breakdown is deterministic under the model).
func series(s sorter, t trial, reps int) ([]time.Duration, point, error) {
	runs := make([]time.Duration, 0, reps)
	var first point
	for rep := 0; rep < reps; rep++ {
		tr := t
		tr.spec.Seed = t.spec.Seed + uint64(rep)*1000003
		pt, err := run(s, tr)
		if err != nil {
			return nil, point{}, err
		}
		runs = append(runs, pt.Makespan)
		if rep == 0 {
			first = pt
		}
	}
	return runs, first, nil
}

// seconds renders a duration in seconds with 3 decimals.
func seconds(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}
