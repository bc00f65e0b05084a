// Package core implements the paper's contribution: a distributed histogram
// sort (§V) built on iterative splitter bisection, a single ALLTOALLV data
// exchange, and a choice of local merge strategies — together with the
// distributed k-selection (Algorithm 1) it generalizes.
//
// The algorithm works in four supersteps:
//
//  1. Local Sort — each rank sorts its partition with a fast shared-memory
//     sort.
//  2. Splitting — the splitters are determined with iterative histogramming
//     over the locally sorted partitions (Algorithms 2+3); data never moves.
//  3. Data Exchange — a permutation matrix is derived from the splitter
//     bounds with boundary refinement for perfect partitioning
//     (Algorithm 4), then a single ALLTOALLV moves every element exactly
//     once.
//  4. Local Merge — received runs are combined by re-sorting (the paper's
//     evaluated default), a binary merge tree, or merging fused with the
//     exchange (§V-C, §VI-E1).
//
// No assumptions are made about the key distribution, the number of ranks
// (powers of two are not required), or the input partitioning (ranks may be
// empty — sparse inputs, §VII).
package core

import (
	"fmt"
	"math"
	"runtime"

	"dhsort/internal/comm"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/store"
)

// MergeStrategy selects the Local Merge algorithm (§V-C).
type MergeStrategy int

const (
	// MergeResort concatenates received runs and re-sorts — the strategy
	// the paper's evaluated implementation uses.
	MergeResort MergeStrategy = iota
	// MergeBinaryTree merges runs pairwise over log2(P) rounds.
	MergeBinaryTree
	// MergeOverlap fuses the data exchange with merging: the ALLTOALLV
	// is replaced by explicit 1-factor rounds [34] and each received
	// chunk is merged while later chunks are still in flight — the
	// communication/computation overlap sketched in §VI-E1.
	MergeOverlap
)

// String returns the strategy name.
func (m MergeStrategy) String() string {
	switch m {
	case MergeResort:
		return "resort"
	case MergeBinaryTree:
		return "binary-tree"
	case MergeOverlap:
		return "overlap"
	}
	return fmt.Sprintf("MergeStrategy(%d)", int(m))
}

// MarshalText encodes the strategy as its name.
func (m MergeStrategy) MarshalText() ([]byte, error) {
	return []byte(m.String()), nil
}

// UnmarshalText inverts MarshalText; the empty name is MergeResort.
func (m *MergeStrategy) UnmarshalText(name []byte) error {
	for v := MergeResort; v <= MergeOverlap; v++ {
		if v.String() == string(name) || len(name) == 0 {
			*m = v
			return nil
		}
	}
	return fmt.Errorf("unknown merge strategy %q", name)
}

// Config tunes a distributed sort.  The zero value is a valid configuration:
// perfect partitioning, re-sort merging, automatic exchange schedule.
type Config struct {
	// Epsilon is the load-balance threshold ε of Definition 1: after
	// sorting, every rank holds at most N(1+ε)/P elements.  Zero demands
	// perfect partitioning (every rank ends with exactly its input
	// capacity), the setting of all the paper's benchmarks.
	Epsilon float64

	// Merge selects the Local Merge strategy.
	Merge MergeStrategy

	// Exchange selects the data-exchange backend (§VI-E1): an ALLTOALLV
	// schedule, which comm.AlltoallWith runs as a block collective (the zero
	// value picks by priced message size), or comm.ExchangeRMAPut for the
	// one-sided put+notify rounds, which are fused with merging and take
	// precedence over Merge.  MergeOverlap and a spilled partition
	// (MemBudget) bring their own 1-factor sendrecv rounds; selectExchange
	// (exchange.go) is the whole table.
	Exchange comm.AlltoallAlgorithm

	// ForceUnique applies the (key, rank, index) uniqueness
	// transformation of §V-A, making every key globally distinct at the
	// cost of 8 extra bytes per key during the exchange and up to 64
	// extra bisection iterations (the 128-bit embedding).
	//
	// It is off by default: the boundary refinement of Algorithm 4
	// splits runs of equal keys across ranks exactly, so perfect
	// partitioning holds for any input without the transformation, and
	// iteration counts match the paper's key-width bounds (~30 for keys
	// in [0, 1e9]).  Enable it to reproduce the transformed variant or
	// to make splitter values themselves unique.
	ForceUnique bool

	// VirtualScale prices bulk data (local sorting/merging and the
	// ALLTOALLV payload) as if each rank held VirtualScale times its real
	// element count.  It lets paper-scale volumes drive the cost model
	// while the run executes — and is verified — on reduced data.
	// Values < 1 are treated as 1.  Only meaningful under a cost model.
	VirtualScale float64

	// Kernel forces a specific Local Sort kernel instead of the automatic
	// dispatch: KernelRadix, KernelTaskMerge or KernelIntrosort.  Empty
	// means dispatch by key capability and thread budget.  Forcing
	// KernelRadix on keys without a fixed-width image falls back to the
	// comparison kernels.  Useful for ablations — e.g. reproducing the
	// paper's comparison-sort local phase (its implementation used
	// std::sort) next to the radix fast path.
	Kernel string

	// Threads is the intra-rank worker budget of the compute supersteps: the
	// Local Sort kernel, the per-splitter histogram searches and the re-sort
	// fork-join across up to Threads goroutines; the merges run sequentially
	// on the host, and the cost model prices them as parallel merges on
	// Threads workers.  Zero means runtime.GOMAXPROCS(0).  Set 1 for virtual
	// clocks reproducible across machines, since the model prices the
	// thread budget.
	Threads int

	// Rebalance enables the bounded post-merge rebalance step of the
	// skew-proofing path: after the Local Merge, output bucket sizes are
	// checked against the Definition 1 bound, and any surplus is shed to
	// line neighbors in deterministic order-preserving rounds (capped at
	// P), priced on the virtual clock and recorded in metrics.  The
	// histogram sort's boundary refinement already yields exact counts, so
	// this is a safety net for refinements that stop at their round cap
	// (hss's sampled interpolation on skewed keys) and for callers feeding
	// pre-partitioned skewed data; it is off by default and fault-free
	// metrics are unchanged when it never fires.
	Rebalance bool

	// Recovery selects how the sort survives a permanent rank death
	// (fault.Plan Deaths / comm.ErrRankDead):
	//
	//   - RecoveryRespawn (or ""): the PR-4 behaviour — crashed ranks
	//     respawn from their checkpoints, but a permanent death surfaces as
	//     a typed error and aborts the run.
	//   - RecoveryShrink: ULFM-style graceful degradation — survivors
	//     revoke the communicator, agree on the survivor bitmap, shrink to
	//     a dense P−1 communicator, adopt the victim's ring-mirrored
	//     checkpoint shard, and redo the sort there.
	//
	// Only meaningful in fault-injecting worlds; fault-free runs ignore it.
	Recovery string

	// Probes is the number of histogram probes placed per unfinished
	// splitter boundary per refinement round — the k of k-ary search.
	// 0 or 1 is the paper's bisection (one midpoint probe, round count
	// log2 of the key range); k > 1 places k evenly spaced probes across
	// each open interval, cutting rounds to log_{k+1} of the range at the
	// cost of a k·(P-1)-sized ALLREDUCE payload per round.  The
	// latency/bandwidth trade is priced honestly on the virtual clock:
	// more search work and larger reductions per round, far fewer rounds.
	// Capped at MaxProbes.
	Probes int

	// MemBudget caps this rank's resident working set in bytes.  When the
	// local partition's key volume (len(local) · ops.Bytes()) exceeds the
	// budget — and the key type round-trips its 128-bit embedding exactly
	// (keys.Image.Lossless) — the sort runs the external-memory path: local
	// sort produces budget-sized sorted runs in the out-of-core store, a
	// k-way block merge combines them into the rank's sorted partition
	// run, the search supersteps (Splitting, ComputeCuts) binary-search the
	// run through a block cache, and the exchange runs the 1-factor rounds
	// whatever Exchange and Merge say: with P within SpillFanIn they carry
	// span references, each with a reader the sender opened on its partition
	// run, and the final merge reads the senders' runs in place; above it
	// received segments are sealed as scratch runs instead of growing
	// slices.  Under fault injection the partition run is also the
	// checkpoint's primary copy.  Any positive budget sends
	// every rank down that path (the collective pattern must be
	// config-consistent even when only some ranks exceed the budget).  0
	// disables spilling.  Keys without a lossless embedding (pairs, strings)
	// stay resident regardless.
	MemBudget int64

	// SpillDir roots a filesystem store for the spill runs of a budgeted
	// sort, and for its checkpoint replica runs under fault injection.  Empty
	// with a nil Store means spills go to a run-private in-memory store —
	// budget-bounded execution without a scratch directory.  Without a
	// positive MemBudget it is ignored: a resident sort checkpoints in
	// memory.
	SpillDir string

	// SpillFanIn is the k of the external k-way merge: how many runs merge
	// simultaneously per pass.  0 means store.DefaultFanIn.
	SpillFanIn int

	// Store overrides the spill store directly (it wins over SpillDir);
	// like SpillDir it matters only with a positive MemBudget.  Sharing one
	// Store across ranks is what lets shrink recovery adopt a dead spilled
	// rank's partition or replica run: any survivor can read them back.
	Store store.Store

	// Recorder, when non-nil, receives this rank's phase timings and
	// iteration counts.
	Recorder *metrics.Recorder
}

// MaxProbes bounds Config.Probes: beyond this the ALLREDUCE payload grows
// without measurably cutting rounds (log_{65}(2^64) is already ~11).
const MaxProbes = 64

// Recovery modes for Config.Recovery.
const (
	// RecoveryRespawn keeps the checkpoint/respawn semantics of the crash
	// schedule and treats a permanent death as fatal (the default).
	RecoveryRespawn = "respawn"
	// RecoveryShrink continues on the survivors after a permanent death:
	// revoke, agree, shrink, adopt the mirrored shard, redo.
	RecoveryShrink = "shrink"
)

// Scale returns the effective VirtualScale, the byte scale bulk messages
// are priced at: at least 1, at most simnet.MaxScaled.
func (cfg Config) Scale() float64 { return min(max(cfg.VirtualScale, 1), simnet.MaxScaled) }

// Scaled returns the count the cost model prices for n keys or bytes at the
// effective scale (simnet.Scaled).  Every sorter prices its bulk counts
// through it.
func (cfg Config) Scaled(n int) int { return simnet.Scaled(n, cfg.Scale()) }

// splitTargets turns the ranks' gathered capacities into the splitter
// targets of Definition 3 (their prefix sums), the global key count N and
// the tolerance of Definition 1 for ε = eps.
func splitTargets(capacities []int64, eps float64) (targets []int64, totalN, tol int64) {
	targets = make([]int64, len(capacities)-1)
	for i, n := range capacities {
		totalN += n
		if i < len(targets) {
			targets[i] = totalN
		}
	}
	return targets, totalN, tolerance(eps, totalN, len(capacities))
}

// tolerance is Definition 1's ε·N/(2·parts) in elements, clamped to [0, N]
// before the conversion: a huge ε accepts every probe instead of
// overflowing into a negative tolerance that accepts none.
func tolerance(eps float64, totalN int64, parts int) int64 {
	t := eps * float64(totalN) / (2 * float64(parts))
	if !(t < float64(totalN)) { // NaN too
		return totalN
	}
	return int64(max(t, 0))
}

// threads returns the effective intra-rank worker budget.
func (cfg Config) threads() int {
	if cfg.Threads <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return cfg.Threads
}

// fanIn returns the effective external-merge fan-in.
func (cfg Config) fanIn() int {
	if cfg.SpillFanIn < 2 {
		return store.DefaultFanIn
	}
	return cfg.SpillFanIn
}

// durableStore returns the shared store a spilled sort's runs and
// checkpoint replicas live in, or nil when the configuration names none — a
// run-private memory store is then used, and no survivor can adopt a dead
// rank's runs.
func (cfg Config) durableStore() store.Store {
	if cfg.Store != nil {
		return cfg.Store
	}
	if cfg.SpillDir != "" {
		return store.NewFS(cfg.SpillDir)
	}
	return nil
}

// Validate rejects nonsensical configurations.  Every sort entry point runs
// it; the CLI and the service call it to reject a setting before any rank
// starts.
func (cfg Config) Validate() error {
	if cfg.Epsilon < 0 || math.IsNaN(cfg.Epsilon) || math.IsInf(cfg.Epsilon, 1) {
		return fmt.Errorf("core: Epsilon must be finite and non-negative, got %v", cfg.Epsilon)
	}
	if math.IsNaN(cfg.VirtualScale) || math.IsInf(cfg.VirtualScale, 0) {
		return fmt.Errorf("core: VirtualScale must be finite, got %v", cfg.VirtualScale)
	}
	if cfg.Merge < MergeResort || cfg.Merge > MergeOverlap {
		return fmt.Errorf("core: unknown merge strategy %d", int(cfg.Merge))
	}
	if cfg.Exchange < comm.AlltoallAuto || cfg.Exchange > comm.ExchangeRMAPut {
		return fmt.Errorf("core: unknown exchange algorithm %d", int(cfg.Exchange))
	}
	if cfg.Threads < 0 {
		return fmt.Errorf("core: Threads must be non-negative, got %d", cfg.Threads)
	}
	if cfg.Probes < 0 {
		return fmt.Errorf("core: Probes must be non-negative, got %d", cfg.Probes)
	}
	if cfg.Probes > MaxProbes {
		return fmt.Errorf("core: Probes must be at most %d, got %d", MaxProbes, cfg.Probes)
	}
	if cfg.MemBudget < 0 {
		return fmt.Errorf("core: MemBudget must be non-negative, got %d", cfg.MemBudget)
	}
	if cfg.SpillFanIn < 0 || cfg.SpillFanIn == 1 {
		return fmt.Errorf("core: SpillFanIn must be 0 (default) or at least 2, got %d", cfg.SpillFanIn)
	}
	if cfg.MemBudget > 0 && cfg.Recovery == RecoveryShrink && cfg.durableStore() == nil {
		return fmt.Errorf("core: MemBudget with shrink recovery needs a shared store (Store or SpillDir) so survivors can adopt a dead rank's checkpoint shards")
	}
	switch cfg.Kernel {
	case "", KernelRadix, KernelTaskMerge, KernelIntrosort:
	default:
		return fmt.Errorf("core: unknown local sort kernel %q", cfg.Kernel)
	}
	switch cfg.Recovery {
	case "", RecoveryRespawn, RecoveryShrink:
	default:
		return fmt.Errorf("core: unknown recovery mode %q (want %q or %q)", cfg.Recovery, RecoveryRespawn, RecoveryShrink)
	}
	return nil
}
