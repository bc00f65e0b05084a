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
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/fault"
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

// FaultSpan is one fault-plane occurrence on a rank's timeline: an injected
// fault, its detection, a repair attempt, or a completed recovery — the
// explanation for why a superstep ran slow.  Kind carries the
// fault.EventKind label ("inject", "detect", "retry", "recover") as a
// string.
type FaultSpan struct {
	Kind   string
	Phase  Phase         // superstep the event interrupted
	At     time.Duration // clock time the event was recorded
	Dur    time.Duration // time the event cost (backoff wait, recovery)
	Detail string
}

// LinkTally tallies one link class's traffic: two-sided messages and bytes,
// plus one-sided puts, put volume and notifications (internal/rma traffic,
// zero unless the run used the one-sided exchange).  The one-sided counters
// are OPTIONAL schema fields: they are omitted when zero, so documents from
// runs without RMA traffic keep the layout they had before the fields
// existed.
type LinkTally struct {
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
	Puts     int64 `json:"puts,omitempty"`
	PutBytes int64 `json:"put_bytes,omitempty"`
	Notifies int64 `json:"notifies,omitempty"`
}

// add accumulates o into t.
func (t *LinkTally) add(o LinkTally) {
	t.Messages += o.Messages
	t.Bytes += o.Bytes
	t.Puts += o.Puts
	t.PutBytes += o.PutBytes
	t.Notifies += o.Notifies
}

// FaultTally aggregates the fault plane's activity in one run: the faults
// the injector scheduled, the resilience work the transport did to survive
// them, and the checkpoint/recovery traffic of the supersteps.  All zero in
// fault-free runs; every counter is omitted from JSON when zero.
type FaultTally struct {
	// Transport-level (from comm.Stats.Fault).
	Drops     int64 `json:"drops,omitempty"`
	Dups      int64 `json:"dups,omitempty"`
	Delays    int64 `json:"delays,omitempty"`
	Reorders  int64 `json:"reorders,omitempty"`
	Retries   int64 `json:"retries,omitempty"`
	RetryNS   int64 `json:"retry_ns,omitempty"`
	DedupHits int64 `json:"dedup_hits,omitempty"`
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
	t.Drops += o.Drops
	t.Dups += o.Dups
	t.Delays += o.Delays
	t.Reorders += o.Reorders
	t.Retries += o.Retries
	t.RetryNS += o.RetryNS
	t.DedupHits += o.DedupHits
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

// Recorder accumulates one rank's per-phase time (against its clock, wall
// or simulated) and per-phase communication volume by link class (against
// its comm.Stats accumulator).  A nil *Recorder is valid and records
// nothing, so algorithms can run uninstrumented.  A Recorder is confined to
// its rank goroutine; aggregate with Summarize after World.Run returns.
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
	// Iterations counts histogramming iterations (§V-A).
	Iterations int
	// Probes is the k-ary probe count per unfinished splitter per
	// iteration (0 when unrecorded — bisection runs record nothing).
	Probes int
	// WarmStart records that splitter refinement was seeded with warm
	// intervals from an earlier run.
	WarmStart bool
	// ExchangedBytes counts this rank's outgoing data-exchange volume as
	// priced by the algorithm (includes VirtualScale inflation).
	ExchangedBytes int64
	// ElementsIn and ElementsOut are the rank's partition sizes before and
	// after sorting, feeding the output-imbalance factor.
	ElementsIn, ElementsOut int
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
	// Fault tallies the rank's fault-plane activity (transport counters
	// folded in at phase boundaries, checkpoint/recovery recorded by the
	// superstep boundaries).  Zero in fault-free runs.
	Fault FaultTally
	// Survivors is the size of the communicator this rank finished on
	// after a shrink recovery (0 when the run never shrank).
	Survivors int
	// Rebalances counts post-merge bounded rebalance passes this rank
	// participated in (skew-proofing: shedding an output bucket that
	// exceeded the imbalance bound to its neighbors).
	Rebalances int64
	// RebalanceRounds counts neighbor-exchange rounds across those passes.
	RebalanceRounds int64
	// RebalanceBytes is the priced volume this rank moved during rebalance.
	RebalanceBytes int64
	// RebalanceNS is the virtual time this rank spent rebalancing.
	RebalanceNS int64
	// SpilledRuns counts the sorted runs this rank spilled to the
	// out-of-core store (local-sort chunk runs plus exchange receive runs;
	// 0 when the run stayed resident).
	SpilledRuns int64
	// SpillBytes is the record volume this rank wrote to the store.
	SpillBytes int64
	// FaultSpans is the rank's fault-event timeline (capped at
	// maxFaultSpans; FaultSpansDropped counts the overflow).
	FaultSpans        []FaultSpan
	FaultSpansDropped int
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
// accumulator — the standard way to instrument a rank function.  Under a
// fault-injecting world it also registers itself as the rank's fault-event
// observer, turning transport events into trace spans.
func ForComm(c *comm.Comm) *Recorder {
	r := NewRecorder(c.Clock(), c.Stats())
	if c.FaultInjector() != nil {
		c.SetFaultObserver(func(e fault.Event) {
			r.AddFaultSpan(e.Kind.String(), e.Detail, e.Dur)
		})
	}
	return r
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
		for lc := 0; lc < int(simnet.NumLinkClasses); lc++ {
			r.Links[r.cur][lc].add(LinkTally{
				Messages: d.Messages[lc], Bytes: d.Bytes[lc],
				Puts: d.Puts[lc], PutBytes: d.PutBytes[lc], Notifies: d.Notifies[lc],
			})
		}
		r.Fault.add(FaultTally{
			Drops: d.Fault.Drops, Dups: d.Fault.Dups, Delays: d.Fault.Delays,
			Reorders: d.Fault.Reorders, Retries: d.Fault.Retries,
			RetryNS: d.Fault.RetryNS, DedupHits: d.Fault.Dedup,
		})
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

// SetWarmStart records that splitter refinement was warm-started.
func (r *Recorder) SetWarmStart() {
	if r != nil {
		r.WarmStart = true
	}
}

// AddExchangedBytes accounts outgoing exchange volume.
func (r *Recorder) AddExchangedBytes(n int64) {
	if r != nil {
		r.ExchangedBytes += n
	}
}

// SetElements records the rank's input and output partition sizes.
func (r *Recorder) SetElements(in, out int) {
	if r != nil {
		r.ElementsIn, r.ElementsOut = in, out
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

// maxFaultSpans caps the per-rank span list; a high-rate injection schedule
// can emit millions of events, and the tail adds nothing a counter doesn't.
const maxFaultSpans = 4096

// AddFaultSpan appends a fault event to the rank's timeline, stamped with
// the current clock and phase.  Spans beyond maxFaultSpans are counted, not
// stored.
func (r *Recorder) AddFaultSpan(kind, detail string, dur time.Duration) {
	if r == nil {
		return
	}
	if len(r.FaultSpans) >= maxFaultSpans {
		r.FaultSpansDropped++
		return
	}
	r.FaultSpans = append(r.FaultSpans, FaultSpan{
		Kind: kind, Phase: r.cur, At: r.clock.Now(), Dur: dur, Detail: detail,
	})
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
	// MaxIterations is the largest per-rank iteration count (iterations
	// are identical on every rank, so this is *the* iteration count).
	MaxIterations int
	// Probes is the k-ary probe count refinement ran with (identical on
	// every rank; 0 when the run did not record one — i.e. bisection).
	Probes int
	// WarmStart reports whether any rank's refinement was warm-started.
	WarmStart bool
	// ExchangedBytes is the total exchanged volume across ranks.
	ExchangedBytes int64
	// TimeImbalance is max(rank total time) / mean(rank total time) — the
	// load-imbalance factor of the run (1.0 = perfectly balanced).
	TimeImbalance float64
	// OutputImbalance is max(rank output size) / mean(rank output size):
	// 1.0 under perfect partitioning (Definition 1 with ε = 0).
	OutputImbalance float64
	// ExchangeAlg is the effective data-exchange algorithm (identical on
	// every rank; empty when the run did not record one).
	ExchangeAlg string
	// LocalSortKernel is the Local Sort kernel dispatch choice (identical
	// on every rank; empty when the run did not record one).
	LocalSortKernel string
	// Threads is the intra-rank worker budget (identical on every rank;
	// 0 when the run did not record one).
	Threads int
	// Fault is the fault-plane activity summed across ranks (zero in
	// fault-free runs).
	Fault FaultTally
	// Survivors is the size of the communicator the run finished on after
	// a shrink recovery — the max across ranks (0 when no rank shrank).
	Survivors int
	// Rebalances is the max per-rank rebalance pass count (passes are
	// collective, so this is *the* pass count of the run).
	Rebalances int64
	// RebalanceRounds is the max per-rank neighbor-round count.
	RebalanceRounds int64
	// RebalanceBytes is the total priced rebalance volume across ranks.
	RebalanceBytes int64
	// RebalanceNS is the total virtual rebalance time across ranks.
	RebalanceNS int64
	// SpilledRuns is the total run count sealed into the out-of-core store
	// across ranks (0 when the run stayed resident).
	SpilledRuns int64
	// SpillBytes is the total record volume spilled across ranks.
	SpillBytes int64
	// FaultEvents counts the fault-event spans recorded across ranks
	// (including any dropped past the per-rank cap).
	FaultEvents int64
}

// Summarize aggregates per-rank recorders (nil entries are skipped).
func Summarize(recs []*Recorder) Summary {
	var s Summary
	var totalTime, maxTotal time.Duration
	var totalOut, maxOut int64
	for _, r := range recs {
		if r == nil {
			continue
		}
		s.Ranks++
		var rankTotal time.Duration
		for p := Phase(0); p < NumPhases; p++ {
			s.Times[p] += r.Times[p]
			rankTotal += r.Times[p]
			if r.Times[p] > s.MaxTimes[p] {
				s.MaxTimes[p] = r.Times[p]
			}
			for lc := 0; lc < int(simnet.NumLinkClasses); lc++ {
				s.Links[p][lc].add(r.Links[p][lc])
			}
		}
		totalTime += rankTotal
		if rankTotal > maxTotal {
			maxTotal = rankTotal
		}
		totalOut += int64(r.ElementsOut)
		if int64(r.ElementsOut) > maxOut {
			maxOut = int64(r.ElementsOut)
		}
		if r.Iterations > s.MaxIterations {
			s.MaxIterations = r.Iterations
		}
		if r.Probes > s.Probes {
			s.Probes = r.Probes
		}
		if r.WarmStart {
			s.WarmStart = true
		}
		s.ExchangedBytes += r.ExchangedBytes
		if s.ExchangeAlg == "" {
			s.ExchangeAlg = r.ExchangeAlg
		}
		if s.LocalSortKernel == "" {
			s.LocalSortKernel = r.LocalSortKernel
		}
		if s.Threads == 0 {
			s.Threads = r.Threads
		}
		s.Fault.add(r.Fault)
		if r.Survivors > s.Survivors {
			s.Survivors = r.Survivors
		}
		if r.Rebalances > s.Rebalances {
			s.Rebalances = r.Rebalances
		}
		if r.RebalanceRounds > s.RebalanceRounds {
			s.RebalanceRounds = r.RebalanceRounds
		}
		s.RebalanceBytes += r.RebalanceBytes
		s.RebalanceNS += r.RebalanceNS
		s.SpilledRuns += r.SpilledRuns
		s.SpillBytes += r.SpillBytes
		s.FaultEvents += int64(len(r.FaultSpans) + r.FaultSpansDropped)
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
	for p := Phase(0); p < NumPhases; p++ {
		for lc := 0; lc < int(simnet.NumLinkClasses); lc++ {
			out[lc].add(s.Links[p][lc])
		}
	}
	return out
}
