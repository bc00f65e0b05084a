// Package metrics is the repo's observability layer: it captures per-rank,
// per-superstep timings together with communication volume by link class,
// aggregates them across ranks (including load-imbalance factors), and
// defines the stable, versioned JSON schema the bench binary emits — the
// machine-readable counterpart to the per-phase breakdowns the paper's
// evaluation (Figs. 2-4) is built from.
//
// The Recorder is a nil-safe phase API every algorithm threads through its
// Config; it diffs the rank's comm.Stats accumulator at every phase
// boundary, so message counts and byte volumes are attributed to the
// superstep that caused them.
package metrics

import (
	"cmp"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/simnet"
)

// Phase identifies one superstep of the sorting pipeline.
type Phase int

// The phases the paper's evaluation breaks executions into.
const (
	// LocalSort is the initial local sort superstep.
	LocalSort Phase = iota
	// Histogram is the splitter-determination superstep (§V-A).
	Histogram
	// Exchange is the ALL-TO-ALLV data exchange superstep (§V-B).
	Exchange
	// Merge is the local merge superstep (§V-C).
	Merge
	// Other covers setup, permutation-matrix construction, and teardown.
	Other
	// NumPhases is the number of phases.
	NumPhases
)

// String returns the phase name as used in the figures.
func (p Phase) String() string {
	switch p {
	case LocalSort:
		return "LocalSort"
	case Histogram:
		return "Histogram"
	case Exchange:
		return "Exchange"
	case Merge:
		return "Merge"
	case Other:
		return "Other"
	}
	return "Unknown"
}

// LinkTally tallies one link class's traffic (see comm.LinkTally, whose JSON
// names the schema uses).
type LinkTally = comm.LinkTally

// FaultTally aggregates the fault plane's activity in one run: the faults
// the injector scheduled and the resilience work the transport did to
// survive them (comm's counters), then the checkpoint/recovery traffic of
// the supersteps.  All zero in fault-free runs; every counter is omitted
// from JSON when zero.
type FaultTally struct {
	// Transport-level (from comm.Stats.Fault).
	comm.FaultCounters
	// Superstep-level (recorded by the checkpoint boundaries).
	Checkpoints     int64 `json:"checkpoints,omitempty"`
	CheckpointBytes int64 `json:"checkpoint_bytes,omitempty"`
	Recoveries      int64 `json:"recoveries,omitempty"`
	RecoveryNS      int64 `json:"recovery_ns,omitempty"`
	Stalls          int64 `json:"stalls,omitempty"`
	StallNS         int64 `json:"stall_ns,omitempty"`
	// Graceful-degradation level (recorded by the shrink recovery path).
	Deaths      int64 `json:"deaths,omitempty"`
	AgreeRounds int64 `json:"agree_rounds,omitempty"`
	Shrinks     int64 `json:"shrinks,omitempty"`
	ShrinkNS    int64 `json:"shrink_ns,omitempty"`
}

// Any reports whether the tally recorded any fault-plane activity.
func (t FaultTally) Any() bool {
	return t != FaultTally{}
}

// add accumulates o into t.
func (t *FaultTally) add(o FaultTally) {
	t.FaultCounters.Add(o.FaultCounters)
	t.Checkpoints += o.Checkpoints
	t.CheckpointBytes += o.CheckpointBytes
	t.Recoveries += o.Recoveries
	t.RecoveryNS += o.RecoveryNS
	t.Stalls += o.Stalls
	t.StallNS += o.StallNS
	t.Deaths += o.Deaths
	t.AgreeRounds += o.AgreeRounds
	t.Shrinks += o.Shrinks
	t.ShrinkNS += o.ShrinkNS
}

// Counts are the run facts a rank records beside its phase times: what the
// supersteps counted and what they chose.  A Recorder holds one rank's; a
// Summary holds their fold across ranks.
type Counts struct {
	// Iterations counts histogramming iterations (§V-A).
	Iterations int
	// Probes is the k-ary probe count per unfinished splitter per
	// iteration (0 when unrecorded — bisection runs record nothing).
	Probes int
	// ExchangedBytes counts outgoing data-exchange volume as priced by the
	// algorithm (includes VirtualScale inflation).
	ExchangedBytes int64
	// ExchangeAlg is the data-exchange algorithm that actually ran —
	// recorded by core's exchange superstep as the effective choice, which may
	// differ from the requested one (e.g. comm runs hierarchical as
	// one-factor without node topology, see comm.EffectiveSchedule).
	ExchangeAlg string
	// LocalSortKernel names the Local Sort kernel the run dispatched to
	// ("radix", "task-merge", "introsort"; empty when not recorded).
	LocalSortKernel string
	// Threads is the intra-rank worker budget the compute kernels ran
	// with (0 when not recorded).
	Threads int
	// Fault tallies the fault-plane activity (transport counters folded in
	// at phase boundaries, checkpoint/recovery recorded by the superstep
	// boundaries).  Zero in fault-free runs.
	Fault FaultTally
	// Survivors is the size of the communicator the rank finished on
	// after a shrink recovery (0 when the run never shrank).
	Survivors int
	// Rebalances counts post-merge bounded rebalance passes (skew-proofing:
	// shedding an output bucket that exceeded the imbalance bound to its
	// neighbors).
	Rebalances int64
	// RebalanceRounds counts neighbor-exchange rounds across those passes.
	RebalanceRounds int64
	// RebalanceBytes is the priced volume moved during rebalance.
	RebalanceBytes int64
	// RebalanceNS is the virtual time spent rebalancing.
	RebalanceNS int64
	// SpilledRuns counts the sorted runs spilled to the out-of-core store
	// (local-sort chunk runs plus exchange receive runs; 0 when the run
	// stayed resident).
	SpilledRuns int64
	// SpillBytes is the record volume written to the store.
	SpillBytes int64
}

// fold folds one rank's counts o into c.  This is the one statement of each
// fact's cross-rank rule: collective facts, identical on every rank that
// records them, take the maximum; volumes and the fault tally add up; the
// run's choices take the first rank that recorded one.
func (c *Counts) fold(o Counts) {
	c.Iterations = max(c.Iterations, o.Iterations)
	c.Probes = max(c.Probes, o.Probes)
	c.Survivors = max(c.Survivors, o.Survivors)
	c.Rebalances = max(c.Rebalances, o.Rebalances)
	c.RebalanceRounds = max(c.RebalanceRounds, o.RebalanceRounds)

	c.ExchangedBytes += o.ExchangedBytes
	c.Fault.add(o.Fault)
	c.RebalanceBytes += o.RebalanceBytes
	c.RebalanceNS += o.RebalanceNS
	c.SpilledRuns += o.SpilledRuns
	c.SpillBytes += o.SpillBytes

	c.ExchangeAlg = cmp.Or(c.ExchangeAlg, o.ExchangeAlg)
	c.LocalSortKernel = cmp.Or(c.LocalSortKernel, o.LocalSortKernel)
	c.Threads = cmp.Or(c.Threads, o.Threads)
}

// Recorder accumulates one rank's per-phase time (against its clock, wall
// or simulated), per-phase communication volume by link class (against
// its comm.Stats accumulator) and run Counts.  A nil *Recorder is valid and
// records nothing, so algorithms can run uninstrumented.  A Recorder is
// confined to its rank goroutine; aggregate with Summarize after World.Run
// returns.
type Recorder struct {
	clock    *simnet.Clock
	stats    *comm.Stats
	mark     time.Duration
	statMark comm.Stats
	cur      Phase

	// Times is the accumulated duration per phase.
	Times [NumPhases]time.Duration
	// Links is the communication volume per phase and link class.
	Links [NumPhases][simnet.NumLinkClasses]LinkTally
	// ElementsOut is the rank's output partition size, feeding the
	// output-imbalance factor.
	ElementsOut int
	Counts
}

// NewRecorder returns a recorder ticking on clock and attributing the
// deltas of stats to phases, starting in Other.  stats may be nil to record
// times only.
func NewRecorder(clock *simnet.Clock, stats *comm.Stats) *Recorder {
	r := &Recorder{clock: clock, stats: stats, mark: clock.Now(), cur: Other}
	if stats != nil {
		r.statMark = *stats
	}
	return r
}

// ForComm returns a recorder bound to the rank's clock and stats
// accumulator — the standard way to instrument a rank function.
func ForComm(c *comm.Comm) *Recorder {
	return NewRecorder(c.Clock(), c.Stats())
}

// Enter closes the current phase and starts p.
func (r *Recorder) Enter(p Phase) {
	if r == nil {
		return
	}
	now := r.clock.Now()
	r.Times[r.cur] += now - r.mark
	r.mark = now
	if r.stats != nil {
		d := r.stats.Sub(r.statMark)
		for lc, t := range d.Links {
			r.Links[r.cur][lc].Add(t)
		}
		r.Fault.FaultCounters.Add(d.Fault)
		r.statMark = *r.stats
	}
	r.cur = p
}

// Finish closes the current phase (into its accumulator) and parks the
// recorder in Other.
func (r *Recorder) Finish() {
	r.Enter(Other)
}

// AddIteration bumps the histogramming iteration counter.
func (r *Recorder) AddIteration() {
	if r != nil {
		r.Iterations++
	}
}

// SetProbes records the k-ary probe count splitter refinement ran with.
// Bisection runs (k = 1) record nothing, keeping their documents unchanged.
func (r *Recorder) SetProbes(k int) {
	if r != nil {
		r.Probes = k
	}
}

// AddExchangedBytes accounts outgoing exchange volume.
func (r *Recorder) AddExchangedBytes(n int64) {
	if r != nil {
		r.ExchangedBytes += n
	}
}

// SetElements records the rank's output partition size.
func (r *Recorder) SetElements(out int) {
	if r != nil {
		r.ElementsOut = out
	}
}

// SetExchangeAlg records the effective data-exchange algorithm.
func (r *Recorder) SetExchangeAlg(alg string) {
	if r != nil {
		r.ExchangeAlg = alg
	}
}

// SetLocalSort records the Local Sort kernel the dispatch chose and the
// intra-rank thread budget the compute supersteps ran with.
func (r *Recorder) SetLocalSort(kernel string, threads int) {
	if r != nil {
		r.LocalSortKernel = kernel
		r.Threads = threads
	}
}

// AddCheckpoint accounts one superstep checkpoint of the given priced
// volume.
func (r *Recorder) AddCheckpoint(bytes int64) {
	if r != nil {
		r.Fault.Checkpoints++
		r.Fault.CheckpointBytes += bytes
	}
}

// AddRecovery accounts one crash recovery (respawn + checkpoint restore)
// that took d of virtual time.
func (r *Recorder) AddRecovery(d time.Duration) {
	if r != nil {
		r.Fault.Recoveries++
		r.Fault.RecoveryNS += int64(d)
	}
}

// AddDeath accounts this rank's own scheduled permanent death (recorded
// just before the rank leaves the computation).  A dead rank finishes on
// no communicator, so any survivor count from an earlier shrink is
// cleared.
func (r *Recorder) AddDeath() {
	if r != nil {
		r.Fault.Deaths++
		r.Survivors = 0
	}
}

// AddAgreeRounds accounts the message rounds one fault-tolerant agreement
// took on this rank.
func (r *Recorder) AddAgreeRounds(n int) {
	if r != nil {
		r.Fault.AgreeRounds += int64(n)
	}
}

// AddShrink accounts one revoke/agree/shrink recovery pass that took d of
// virtual time and left the rank on a communicator of the given size.
func (r *Recorder) AddShrink(d time.Duration, survivors int) {
	if r != nil {
		r.Fault.Shrinks++
		r.Fault.ShrinkNS += int64(d)
		r.Survivors = survivors
	}
}

// AddRebalance accounts one bounded post-merge rebalance pass that took
// rounds neighbor-exchange rounds, moved bytes of priced volume off or onto
// this rank, and cost d of virtual time.
func (r *Recorder) AddRebalance(rounds int, bytes int64, d time.Duration) {
	if r != nil {
		r.Rebalances++
		r.RebalanceRounds += int64(rounds)
		r.RebalanceBytes += bytes
		r.RebalanceNS += int64(d)
	}
}

// AddSpill accounts runs sealed into the out-of-core store totalling bytes
// of record volume.  The volume counts API records (store.RecordBytes each),
// independent of the backing: a filesystem run stores a 64-bit key image in
// 8 bytes, and the counter still charges it 16.
func (r *Recorder) AddSpill(runs int, bytes int64) {
	if r != nil {
		r.SpilledRuns += int64(runs)
		r.SpillBytes += bytes
	}
}

// AddStall accounts one injected rank stall of duration d.
func (r *Recorder) AddStall(d time.Duration) {
	if r != nil {
		r.Fault.Stalls++
		r.Fault.StallNS += int64(d)
	}
}

// Summary aggregates recorders across the ranks of one run.
type Summary struct {
	// Ranks is the number of (non-nil) recorders aggregated.
	Ranks int
	// Times is the mean per-phase duration across ranks.
	Times [NumPhases]time.Duration
	// MaxTimes is the slowest rank's duration per phase.
	MaxTimes [NumPhases]time.Duration
	// Links is the total communication volume across ranks, per phase and
	// link class.
	Links [NumPhases][simnet.NumLinkClasses]LinkTally
	// TimeImbalance is max(rank total time) / mean(rank total time) — the
	// load-imbalance factor of the run (1.0 = perfectly balanced).
	TimeImbalance float64
	// OutputImbalance is max(rank output size) / mean(rank output size):
	// 1.0 under perfect partitioning (Definition 1 with ε = 0).
	OutputImbalance float64
	// Counts is the ranks' counts folded by Counts.fold.
	Counts
}

// Summarize aggregates per-rank recorders (nil entries are skipped).
func Summarize(recs []*Recorder) Summary {
	var s Summary
	var totalTime, maxTotal time.Duration
	var totalOut, maxOut int
	for _, r := range recs {
		if r == nil {
			continue
		}
		s.Ranks++
		var rankTotal time.Duration
		for p := Phase(0); p < NumPhases; p++ {
			s.Times[p] += r.Times[p]
			rankTotal += r.Times[p]
			s.MaxTimes[p] = max(s.MaxTimes[p], r.Times[p])
			for lc, t := range r.Links[p] {
				s.Links[p][lc].Add(t)
			}
		}
		totalTime += rankTotal
		maxTotal = max(maxTotal, rankTotal)
		totalOut += r.ElementsOut
		maxOut = max(maxOut, r.ElementsOut)
		s.fold(r.Counts)
	}
	if s.Ranks > 0 {
		for p := Phase(0); p < NumPhases; p++ {
			s.Times[p] /= time.Duration(s.Ranks)
		}
		if totalTime > 0 {
			s.TimeImbalance = float64(maxTotal) * float64(s.Ranks) / float64(totalTime)
		}
		if totalOut > 0 {
			s.OutputImbalance = float64(maxOut) * float64(s.Ranks) / float64(totalOut)
		}
	}
	return s
}

// Total returns the summed mean phase times.
func (s Summary) Total() time.Duration {
	var t time.Duration
	for _, d := range s.Times {
		t += d
	}
	return t
}

// Fraction returns phase p's share of the total (0 when the total is zero).
func (s Summary) Fraction(p Phase) float64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	return float64(s.Times[p]) / float64(total)
}

// TotalLinks sums the per-phase link tallies into per-link-class totals.
func (s Summary) TotalLinks() [simnet.NumLinkClasses]LinkTally {
	var out [simnet.NumLinkClasses]LinkTally
	for _, links := range s.Links {
		for lc, t := range links {
			out[lc].Add(t)
		}
	}
	return out
}
