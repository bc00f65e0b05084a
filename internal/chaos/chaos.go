// Package chaos is the seeded chaos oracle: a deterministic scenario
// generator that composes adversarial workload distributions, fault plans
// (drop/dup/delay/reorder/crash/stall/die), recovery modes (respawn/
// shrink), exchange backends (ALLTOALLV, fused one-factor, one-sided RMA
// put) and run shapes (P, N, threads) into black-box sorting runs, each
// checked against a four-way oracle:
//
//  1. sortedness + global boundary order — the concatenation of the output
//     partitions in world-rank order is non-decreasing;
//  2. multiset identity — that concatenation is exactly the sorted multiset
//     of every rank's input (elements are neither lost, duplicated, nor
//     invented, even across crash respawns and shrink recoveries);
//  3. imbalance — fault-free scenarios respect the Definition 1 bound
//     (exactly for ε = 0); death scenarios redistribute capacity by design
//     and skip this check;
//  4. replay determinism — the same scenario run twice produces
//     bit-identical outputs and the identical virtual makespan;
//  5. storage independence — out-of-core scenarios re-run with the other
//     store backing (in-memory vs filesystem), and the digest AND the
//     virtual makespan must match: where the spilled runs live can never
//     leak into the output or the modelled schedule.
//
// Every scenario is a pure function of (corpus seed, index), so a failure
// anywhere reproduces from two integers; ReproCommand renders the exact
// command line.
package chaos

import (
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"sort"
	"time"

	"dhsort/internal/bench"
	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/fault"
	"dhsort/internal/metrics"
	"dhsort/internal/prng"
	"dhsort/internal/simnet"
	"dhsort/internal/store"
	"dhsort/internal/workload"
)

// Algorithms the oracle composes over: named configurations of
// bench.Configs whose sorters have checkpointed supersteps and a
// shrink-recovery path.  Their names select the exchange backend too —
// dhsort runs the ALLTOALLV schedules, dhsort-fused the 1-factor exchange
// fused with merging, dhsort-rma the one-sided put+notify exchange.
var Algorithms = []string{"dhsort", "dhsort-fused", "dhsort-rma", "hss"}

// watchdog bounds how long any blocked receive may wait on the wall clock
// before the run aborts with a diagnostic instead of wedging CI.
const watchdog = 60 * time.Second

// Scenario is one composed black-box run, fully determined by (Seed, Index).
type Scenario struct {
	// Index is the scenario's position in its corpus; Seed is the corpus
	// seed it was derived from.  Together they reproduce the scenario.
	Index int
	Seed  uint64

	// Algorithm is one of Algorithms.
	Algorithm string
	// P, PerRank and Threads shape the run.
	P       int
	PerRank int
	Threads int
	// Dist and FloodFrac pick the workload; Epsilon the balance bound.
	Dist      workload.Distribution
	FloodFrac float64
	Epsilon   float64
	// Probes is the histogram probes per unfinished splitter boundary per
	// refinement round (1 = bisection, the classic path).
	Probes int
	// Recovery is core.RecoveryRespawn or core.RecoveryShrink (always
	// shrink when the plan schedules permanent deaths).
	Recovery string
	// Rebalance enables the bounded post-merge rebalance.
	Rebalance bool
	// MemBudget, when positive, runs the scenario out-of-core: every rank
	// spills local-sort runs, exchange segments and durable checkpoint
	// shards into one shared scenario store.  The storage oracle then
	// re-executes the run with the other backing (filesystem instead of
	// memory) and demands the identical digest and virtual makespan.
	MemBudget int64
	// SpillFanIn is the external k-way merge fan-in (0 = store default).
	SpillFanIn int
	// GrowRanks, when positive, exercises the elasticity plane: after the
	// sort completes, the world spawns this many joiner ranks, the Grow
	// collective folds them in, and GrowRebalance re-partitions the sorted
	// output onto the grown communicator — the oracle then demands exact
	// front-loaded balanced shares across ALL ranks, joiners included.
	GrowRanks int
	// GrowDie composes grow with death: the first joiner dies mid-join, so
	// every participant must unwind typed and the incumbents must recover
	// through Revoke/Agree/Shrink on the old communicator, keeping their
	// original sorted partitions intact.
	GrowDie bool
	// Plan is the seeded fault schedule (zero = fault-free).
	Plan fault.Plan
}

// String renders a compact one-line description.
func (s Scenario) String() string {
	f := s.Plan
	faults := ""
	if f.DropRate > 0 {
		faults += fmt.Sprintf(" drop=%.2f", f.DropRate)
	}
	if f.DupRate > 0 {
		faults += fmt.Sprintf(" dup=%.2f", f.DupRate)
	}
	if f.DelayRate > 0 {
		faults += fmt.Sprintf(" delay=%.2f", f.DelayRate)
	}
	if f.ReorderRate > 0 {
		faults += fmt.Sprintf(" reorder=%.2f", f.ReorderRate)
	}
	for _, c := range f.Crashes {
		faults += fmt.Sprintf(" crash=%d@%d", c.Rank, c.Step)
	}
	for _, st := range f.Stalls {
		faults += fmt.Sprintf(" stall=%d@%d", st.Rank, st.Step)
	}
	for _, d := range f.Deaths {
		faults += fmt.Sprintf(" die=%d@%d", d.Rank, d.Step)
	}
	if faults == "" {
		faults = " fault-free"
	}
	extra := ""
	if s.Probes > 1 {
		extra += fmt.Sprintf(" probes=%d", s.Probes)
	}
	if s.Rebalance {
		extra += " rebalance"
	}
	if s.MemBudget > 0 {
		extra += fmt.Sprintf(" spill=%dB", s.MemBudget)
		if s.SpillFanIn > 0 {
			extra += fmt.Sprintf(" fan-in=%d", s.SpillFanIn)
		}
	}
	if s.GrowRanks > 0 {
		extra += fmt.Sprintf(" grow=+%d", s.GrowRanks)
		if s.GrowDie {
			extra += " grow-die"
		}
	}
	return fmt.Sprintf("#%d %s p=%d n=%d t=%d %s eps=%.2f %s%s%s",
		s.Index, s.Algorithm, s.P, s.PerRank, s.Threads, s.Dist, s.Epsilon, s.Recovery, extra, faults)
}

// ReproCommand is the exact command replaying one scenario.
func ReproCommand(s Scenario) string {
	return fmt.Sprintf("go run ./cmd/chaos -seed %d -scenario %d -v", s.Seed, s.Index)
}

// Generate derives scenario index of the corpus seeded with seed.  The
// derivation is a pure function of (seed, index): the same pair always
// yields the same scenario on every machine.
func Generate(seed uint64, index int) Scenario {
	src := prng.NewSplitMix64(seed ^ 0x9e3779b97f4a7c15*uint64(index+1))
	pick := func(n int) int { return int(prng.Uint64n(src, uint64(n))) }
	chance := func(pct int) bool { return pick(100) < pct }

	sc := Scenario{
		Index:     index,
		Seed:      seed,
		Algorithm: Algorithms[pick(len(Algorithms))],
		P:         []int{4, 5, 8, 13, 16}[pick(5)],
		PerRank:   []int{96, 256, 512, 1024}[pick(4)],
		Threads:   1 + pick(2),
		Dist:      workload.Distributions[pick(len(workload.Distributions))],
		Epsilon:   []float64{0, 0, 0.1, 0.34}[pick(4)],
		Probes:    []int{1, 1, 4, 8}[pick(4)],
		Recovery:  core.RecoveryRespawn,
	}
	if sc.Dist == workload.DuplicateFlood {
		sc.FloodFrac = []float64{0.25, 0.5, 0.75}[pick(3)]
	}
	if chance(25) {
		sc.Rebalance = true
	}
	// HSS interpolation can terminate with a slightly-off splitter on
	// heavy-duplicate inputs (the paper's §VI-B volatility), and boundary
	// refinement can only split the duplicate run of the splitter value it
	// was given — so hss runs always carry the bounded rebalance, which
	// restores the Definition 1 bound whenever the cuts fell short.  The
	// dhsort variants are count-exact by construction and draw it randomly.
	if sc.Algorithm == "hss" {
		sc.Rebalance = true
	}

	plan := fault.Plan{Seed: src.Uint64(), Watchdog: watchdog}
	// Message-level faults on roughly half the corpus.
	if chance(50) {
		plan.DropRate = []float64{0.01, 0.02, 0.05}[pick(3)]
	}
	if chance(30) {
		plan.DupRate = 0.02
	}
	if chance(30) {
		plan.DelayRate = 0.05
	}
	if chance(30) {
		plan.ReorderRate = 0.05
	}
	// Rank-level faults: crashes respawn from checkpoints, stalls cost
	// time, deaths force a shrink recovery.  Crashes/deaths fire at the
	// superstep boundaries 1..3, before the exchange, so every exchange
	// backend composes with them; deaths take distinct steps so each
	// shrink pass handles exactly one victim (the ring mirror guarantees
	// adoptability for a single death per boundary).
	steps := []int{core.StepLocalSort, core.StepSplitting, core.StepCuts}
	switch pick(6) {
	case 0: // one crash
		plan.Crashes = []fault.Crash{{Rank: pick(sc.P), Step: steps[pick(3)]}}
	case 1: // two crashes at distinct steps
		s1, s2 := pick(3), pick(3)
		if s1 == s2 {
			s2 = (s2 + 1) % 3
		}
		plan.Crashes = []fault.Crash{
			{Rank: pick(sc.P), Step: steps[s1]},
			{Rank: pick(sc.P), Step: steps[s2]},
		}
	case 2: // one stall (a straggler, not a failure)
		plan.Stalls = []fault.Stall{{Rank: pick(sc.P), Step: steps[pick(3)],
			D: time.Duration(1+pick(5)) * time.Millisecond}}
	case 3: // one permanent death -> shrink recovery
		plan.Deaths = []fault.Death{{Rank: pick(sc.P), Step: steps[pick(3)]}}
		sc.Recovery = core.RecoveryShrink
	case 4: // two deaths at distinct steps and distinct ranks
		r1 := pick(sc.P)
		r2 := pick(sc.P)
		if r2 == r1 {
			r2 = (r1 + 2) % sc.P // not the ring successor either
		}
		s1, s2 := pick(3), pick(3)
		if s1 == s2 {
			s2 = (s2 + 1) % 3
		}
		plan.Deaths = []fault.Death{
			{Rank: r1, Step: steps[s1]},
			{Rank: r2, Step: steps[s2]},
		}
		sc.Recovery = core.RecoveryShrink
	default: // no rank-level fault
	}
	sc.Plan = plan
	// Out-of-core axis on roughly a quarter of the corpus: a per-rank
	// budget of 1/8 or 1/4 of the input key volume forces spilled runs,
	// composed against every fault class above (crash respawns and shrink
	// adoptions then go through durable checkpoint shards in the shared
	// store).  Drawn last so earlier corpora keep their compositions.
	if chance(25) {
		sc.MemBudget = int64(sc.PerRank) * []int64{1, 2}[pick(2)]
		sc.SpillFanIn = []int{0, 2, 4}[pick(3)]
	}
	// Elasticity axis on roughly a fifth of the crash/death-free corpus:
	// grow the sorted world by 2 or 4 joiners and rebalance onto them.
	// Crash/death plans are excluded — their recovery replays inside the
	// sort would race the post-sort grow choreography, and the grow x die
	// composition has its own dedicated sub-axis: when the plan already
	// carries (deterministic, seeded) message faults — which arm the fault
	// plane's death detection — a third of the grow scenarios kill the
	// first joiner mid-join instead.  Drawn last so every earlier corpus,
	// including the pinned 64-scenario CI set, keeps its compositions.
	if len(plan.Crashes) == 0 && len(plan.Deaths) == 0 && chance(20) {
		sc.GrowRanks = []int{2, 4}[pick(2)]
		msgFaults := plan.DropRate > 0 || plan.DupRate > 0 || plan.DelayRate > 0 || plan.ReorderRate > 0
		if msgFaults && chance(33) {
			sc.GrowDie = true
		}
	}
	return sc
}

// Corpus generates the first n scenarios of a seed.
func Corpus(seed uint64, n int) []Scenario {
	out := make([]Scenario, n)
	for i := range out {
		out[i] = Generate(seed, i)
	}
	return out
}

// Result is one scenario's verdict.
type Result struct {
	Scenario Scenario
	// Failures lists every oracle violation (empty = pass).
	Failures []string
	// Makespan is the first execution's virtual time; Digest fingerprints
	// its output (and is what the replay check compares).
	Makespan time.Duration
	Digest   uint64
}

// Pass reports whether every oracle held.
func (r Result) Pass() bool { return len(r.Failures) == 0 }

// Run executes the scenario twice (three times when it spills) and applies
// the oracles.
func Run(sc Scenario) Result {
	res := Result{Scenario: sc}
	a, err := execute(sc, scenarioStore(sc))
	if err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("run error: %v", err))
		return res
	}
	res.Makespan = a.Makespan
	res.Digest = digest(sc, a)
	res.Failures = append(res.Failures, verify(sc, a)...)

	// Replay determinism: schedule replay must be bit-identical.  A fresh
	// store each time — a run must not depend on leftovers of the last.
	// Grow-die scenarios exempt the makespan (the digest already excludes
	// it for them): which barrier round each participant unwinds at depends
	// on whether the dead-rank flag or a peer's revocation reaches it
	// first, so the RECOVERY's virtual cost is discovery-order dependent —
	// the outputs, computed before the failed grow, are still bit-pinned.
	b, err := execute(sc, scenarioStore(sc))
	switch {
	case err != nil:
		res.Failures = append(res.Failures, fmt.Sprintf("replay error: %v", err))
	case digest(sc, b) != res.Digest:
		res.Failures = append(res.Failures, fmt.Sprintf("replay diverged: output digest %x != %x", digest(sc, b), res.Digest))
	case !sc.GrowDie && b.Makespan != a.Makespan:
		res.Failures = append(res.Failures, fmt.Sprintf("replay diverged: makespan %v != %v", b.Makespan, a.Makespan))
	}

	// Storage independence: re-run the spilled scenario against a
	// filesystem store.  Cost-model pricing depends only on element
	// counts, so swapping the backing must change neither the output nor
	// the virtual makespan — the invariant that makes the in-memory
	// executions above representative of on-disk runs.
	if sc.MemBudget > 0 {
		dir, err := os.MkdirTemp("", "chaos-spill-")
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("fs scratch: %v", err))
			return res
		}
		c, err := execute(sc, store.NewFS(dir))
		os.RemoveAll(dir)
		switch {
		case err != nil:
			res.Failures = append(res.Failures, fmt.Sprintf("fs-backed run error: %v", err))
		case digest(sc, c) != res.Digest:
			res.Failures = append(res.Failures, fmt.Sprintf("storage backing changed the output: fs digest %x != mem %x", digest(sc, c), res.Digest))
		case !sc.GrowDie && c.Makespan != a.Makespan:
			res.Failures = append(res.Failures, fmt.Sprintf("storage backing leaked into the schedule: fs makespan %v != mem %v", c.Makespan, a.Makespan))
		}
	}
	return res
}

// scenarioStore returns a fresh shared store for an out-of-core scenario
// (nil when the scenario is resident).  Memory backing is the default: it
// keeps the corpus hermetic while the fs re-execution in Run covers the
// other side of the axis.
func scenarioStore(sc Scenario) store.Store {
	if sc.MemBudget <= 0 {
		return nil
	}
	return store.NewMem()
}

// spec builds the scenario's workload spec.
func (s Scenario) spec() workload.Spec {
	return workload.Spec{
		Dist: s.Dist, Seed: s.Seed + uint64(s.Index)*1000003, Span: 1e9,
		Ranks: s.P, FloodFrac: s.FloodFrac,
	}
}

// execute runs the scenario's world once against st (nil for resident
// scenarios) and collects the surviving ranks' partitions by world rank,
// the joiners' after the incumbents'.
func execute(sc Scenario, st store.Store) (bench.Result, error) {
	i := slices.IndexFunc(bench.Configs, func(col bench.Column) bool { return col.Name == sc.Algorithm })
	if i < 0 {
		return bench.Result{}, fmt.Errorf("chaos: unknown algorithm %q", sc.Algorithm)
	}
	col := bench.Configs[i]
	cfg := col.Cfg
	cfg.Epsilon, cfg.Probes, cfg.Threads, cfg.Rebalance = sc.Epsilon, sc.Probes, sc.Threads, sc.Rebalance
	cfg.MemBudget, cfg.SpillFanIn, cfg.Store, cfg.Recovery = sc.MemBudget, sc.SpillFanIn, st, sc.Recovery
	t := bench.Trial{P: sc.P, N: sc.P * sc.PerRank, Model: simnet.SuperMUC(4, true), Spec: sc.spec(), Plan: sc.Plan}
	joined := make([][]uint64, sc.GrowRanks)
	if sc.GrowRanks > 0 {
		t.Post = func(_ bench.Trial, w *comm.World, c *comm.Comm, rec *metrics.Recorder, out []uint64) ([]uint64, error) {
			return growPhase(sc, w, c, rec, out, joined)
		}
	}
	res, err := bench.Run(bench.Sorters[col.Sorter], cfg, t)
	if err != nil {
		return bench.Result{}, err
	}
	res.Outs = append(res.Outs, joined...)
	return res, nil
}

// growPhase is the elasticity half of a grow scenario, entered by every
// incumbent after its sort completed: bench.Grow's recipe, which returns
// the incumbent's partition, with the joiners' partitions stored in joined.
// Under GrowDie the first joiner dies mid-join; the incumbents must then
// unwind typed, recover on the old communicator, and keep their original
// partitions, and the surviving joiners' typed unwind is the expected
// outcome.
func growPhase(sc Scenario, w *comm.World, c *comm.Comm, rec *metrics.Recorder,
	out []uint64, joined [][]uint64) ([]uint64, error) {
	join := func(jc *comm.Comm, grow func() error) error {
		if sc.GrowDie && jc.Rank() == sc.P {
			jc.Die() // never returns
		}
		if err := grow(); !sc.GrowDie {
			return err
		}
		return nil
	}
	part, err := bench.Grow(w, c, sc.GrowRanks, out, core.Config{Recorder: rec}, join,
		func(nc *comm.Comm, part []uint64) ([]uint64, error) {
			if r := nc.WorldRank(); r >= sc.P {
				joined[r-sc.P] = part
			}
			return part, nil
		})
	if err != nil && !sc.GrowDie {
		return nil, err
	}
	return part, nil
}

// digest fingerprints an execution: every output element in world-rank
// order with rank separators, plus the virtual makespan — except for
// grow-die scenarios, whose recovery makespan is discovery-order dependent
// (see Run) and therefore excluded from the fingerprint.
func digest(sc Scenario, e bench.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for r, out := range e.Outs {
		put(^uint64(r)) // separator
		for _, v := range out {
			put(v)
		}
	}
	if !sc.GrowDie {
		put(uint64(e.Makespan))
	}
	return h.Sum64()
}

// verify applies the host-side oracles to one execution.
func verify(sc Scenario, e bench.Result) []string {
	var fails []string
	spec := sc.spec()

	// Regenerate every rank's input host-side (generation is deterministic)
	// and sort the union: the expected global sequence.
	var expected []uint64
	for r := 0; r < sc.P; r++ {
		in, err := spec.Rank(r, sc.PerRank)
		if err != nil {
			return []string{fmt.Sprintf("workload generation: %v", err)}
		}
		expected = append(expected, in...)
	}
	sort.Slice(expected, func(i, j int) bool { return expected[i] < expected[j] })

	// Sortedness + boundary order + multiset identity in one comparison:
	// the world-rank concatenation of the outputs must BE the sorted input
	// multiset, element for element.
	var got []uint64
	for _, out := range e.Outs {
		got = append(got, out...)
	}
	if len(got) != len(expected) {
		fails = append(fails, fmt.Sprintf("multiset: %d elements out, %d in", len(got), len(expected)))
	} else {
		for i := range expected {
			if got[i] != expected[i] {
				fails = append(fails, fmt.Sprintf("order/multiset: global index %d holds %d, want %d", i, got[i], expected[i]))
				break
			}
		}
	}

	// Elastic scenarios replace the partition-shape gate below:
	//   - a successful grow rebalanced the output at zero tolerance, so
	//     every rank of the GROWN world — joiners included — must hold its
	//     exact front-loaded share of the total;
	//   - a failed grow (grow-die) must leave the incumbents' original
	//     partitions untouched and strand nothing on the joiners.
	if sc.GrowRanks > 0 {
		if sc.GrowDie {
			for r := sc.P; r < len(e.Outs); r++ {
				if len(e.Outs[r]) != 0 {
					fails = append(fails, fmt.Sprintf("grow-die: joiner world rank %d stranded %d elements", r, len(e.Outs[r])))
				}
			}
			// The incumbents' shapes fall through to the ordinary gate.
		} else {
			peff := sc.P + sc.GrowRanks
			total := sc.P * sc.PerRank
			for r, out := range e.Outs {
				want := total / peff
				if r < total%peff {
					want++
				}
				if len(out) != want {
					fails = append(fails, fmt.Sprintf("grow: rank %d holds %d, want the balanced share %d of a %d-way cut", r, len(out), want, peff))
					break
				}
			}
			return fails
		}
	}

	// Imbalance: death scenarios redistribute capacity by design (the
	// survivors adopt the victims' shards), so only deathless runs are
	// gated.  ε = 0 demands the perfect partition — every surviving rank
	// ends with exactly its input capacity; ε > 0 allows the Definition 1
	// bound, or a recorded rebalance that restored it.
	if len(sc.Plan.Deaths) == 0 {
		incumbents := e.Outs[:sc.P]
		maxOut := 0
		for _, out := range incumbents {
			if len(out) > maxOut {
				maxOut = len(out)
			}
		}
		if sc.Epsilon == 0 {
			for r, out := range incumbents {
				if len(out) != sc.PerRank {
					fails = append(fails, fmt.Sprintf("imbalance: eps=0 but rank %d holds %d != %d", r, len(out), sc.PerRank))
					break
				}
			}
		} else if bound := int(float64(sc.PerRank)*(1+sc.Epsilon)) + 1; maxOut > bound {
			fails = append(fails, fmt.Sprintf("imbalance: max bucket %d exceeds bound %d (eps=%.2f) with no recorded rebalance (rebalances=%d)",
				maxOut, bound, sc.Epsilon, e.Summary.Rebalances))
		}
	}
	return fails
}
