// Package dhsort is a distributed histogram sort: a Go reproduction of
// "Engineering a Distributed Histogram Sort" (Kowalewski, Jungblut,
// Fürlinger — IEEE CLUSTER 2019).
//
// The library sorts a sequence partitioned across P ranks.  Ranks are
// goroutines inside one process, communicating through an MPI-like runtime
// with tag-matched point-to-point messages and tree/recursive-doubling
// collectives.  Execution is either in real time or — when given a network
// cost model — against deterministic per-rank virtual clocks, which is how
// the paper's 3584-core scaling studies are reproduced on a single machine.
//
// # Quick start
//
//	cfg := dhsort.Config{}              // perfect partitioning, ε = 0
//	err := dhsort.Run(8, nil, func(c *dhsort.Comm) error {
//		local := loadMyShare(c.Rank()) // []uint64
//		sorted, err := dhsort.Sort(c, local, dhsort.Uint64Ops, cfg)
//		// sorted is this rank's partition of the global order and has
//		// exactly len(local) elements.
//		return err
//	})
//
// The algorithm makes no assumptions about the key distribution, the rank
// count (no power-of-two requirement), or the input partitioning (ranks may
// be empty).  Every element moves across the network exactly once.
//
// NthElement exposes the underlying distributed selection (Algorithm 1 of
// the paper) for order-statistic queries without sorting.
package dhsort

import (
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/fault"
	"dhsort/internal/garray"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/store"
)

// Comm is one rank's communicator handle; see Run.
type Comm = comm.Comm

// World hosts the ranks of one collective execution.
type World = comm.World

// Config tunes a distributed sort; the zero value requests perfect
// partitioning with the re-sort merge strategy, matching the paper's
// evaluated configuration.  Config.Probes widens splitter refinement to k
// probes per boundary per round.
type Config = core.Config

// MaxProbes bounds Config.Probes.
const MaxProbes = core.MaxProbes

// MergeStrategy selects the Local Merge algorithm (§V-C of the paper).
type MergeStrategy = core.MergeStrategy

// The available merge strategies.
const (
	// MergeResort re-sorts the received runs (the paper's default).
	MergeResort = core.MergeResort
	// MergeBinaryTree merges runs pairwise.
	MergeBinaryTree = core.MergeBinaryTree
	// MergeLoserTree merges runs through a tournament tree.
	MergeLoserTree = core.MergeLoserTree
	// MergeOverlap fuses the exchange with merging (§VI-E1 of the paper).
	MergeOverlap = core.MergeOverlap
)

// CostModel prices communication and computation for virtual-time
// execution; nil means real time.
type CostModel = simnet.CostModel

// ExchangeAlgorithm selects the data-exchange backend (Config.Exchange).
type ExchangeAlgorithm = comm.AlltoallAlgorithm

// The available exchange backends (§VI-E1 of the paper).
const (
	// ExchangeAuto picks an ALLTOALLV schedule by priced message size.
	ExchangeAuto = comm.AlltoallAuto
	// ExchangePairwise is the linear shifted ALLTOALLV exchange.
	ExchangePairwise = comm.AlltoallPairwise
	// ExchangeOneFactor schedules the ALLTOALLV as perfect matchings.
	ExchangeOneFactor = comm.AlltoallOneFactor
	// ExchangeBruck is the store-and-forward ALLTOALLV algorithm.
	ExchangeBruck = comm.AlltoallBruck
	// ExchangeHierarchical aggregates through node leaders — in a modelled
	// world of more than one rank per node; the 1-factor schedule otherwise.
	ExchangeHierarchical = comm.AlltoallHierarchical
	// ExchangeRMAPut is the one-sided put+notify exchange over rma
	// windows, fused with merging (the paper's DASH/DART substrate).
	ExchangeRMAPut = comm.ExchangeRMAPut
)

// Recorder captures per-rank phase timings (see Config.Recorder).
type Recorder = metrics.Recorder

// SuperMUCModel returns the cost model of the paper's evaluation machine
// (SuperMUC Phase 2, Table I).  ranksPerNode is 16 or 28 in the paper;
// pgas selects MPI-3 shared-memory-window pricing for intra-node traffic.
func SuperMUCModel(ranksPerNode int, pgas bool) *CostModel {
	return simnet.SuperMUC(ranksPerNode, pgas)
}

// Key operations for the built-in key types.  Pass one of these (or any
// other keys.Ops implementation) to Sort and NthElement.
var (
	// Uint64Ops sorts uint64 keys.
	Uint64Ops = keys.Uint64{}
	// Int64Ops sorts int64 keys.
	Int64Ops = keys.Int64{}
	// Float64Ops sorts float64 keys in IEEE-754 total order.
	Float64Ops = keys.Float64{}
	// Uint32Ops sorts uint32 keys.
	Uint32Ops = keys.Uint32{}
	// Int32Ops sorts int32 keys.
	Int32Ops = keys.Int32{}
	// Float32Ops sorts float32 keys.
	Float32Ops = keys.Float32{}
	// StringOps sorts string keys lexicographically.  Order is always
	// exact; perfect partitioning is exact up to runs of distinct keys
	// sharing a 16-byte prefix (see keys.String).
	StringOps = keys.String{}
)

// FaultPlan is a deterministic seeded failure schedule for resilience
// testing: message drop/duplication/delay/reorder rates plus rank crashes,
// stalls and permanent deaths pinned to superstep boundaries.  The zero
// value injects nothing.  See ParseFaultPlan for the textual syntax.
type FaultPlan = fault.Plan

// ParseFaultPlan parses the -fault CLI syntax, e.g.
// "drop=0.01,dup=0.005,delay=0.02:50us,seed=7,crash=3@2,stall=1@1:200us,die=5@1".
func ParseFaultPlan(spec string) (FaultPlan, error) {
	return fault.Parse(spec)
}

// Recovery modes for permanent rank deaths (Config.Recovery).
const (
	// RecoveryRespawn (the default) rides out crashes by respawning from
	// superstep checkpoints; a permanent death is fatal (ErrRankDead).
	RecoveryRespawn = core.RecoveryRespawn
	// RecoveryShrink continues on the survivors after a permanent death:
	// revoke, agree, adopt the victim's mirrored shard, shrink, redo.
	RecoveryShrink = core.RecoveryShrink
)

// ErrRankDead is the typed error surfaced when a peer rank has permanently
// left the computation and no recovery mode consumes the failure.
var ErrRankDead = comm.ErrRankDead

// ErrShardLost marks an unrecoverable shrink: a victim's checkpoint shard
// has no surviving holder (e.g. two ring-adjacent ranks died at the same
// boundary), so a loss-free continuation is impossible.
var ErrShardLost = core.ErrShardLost

// ErrCheckpointCorrupt marks a failed checkpoint restore or adoption: every
// copy of the snapshot — the primary and the replica mirrored to the ring
// successor, held in memory for a resident sort and as store runs for a
// spilled one — failed the checksum audit.
var ErrCheckpointCorrupt = core.ErrCheckpointCorrupt

// Store is the out-of-core storage plane: named, ordered runs of 128-bit
// key images behind a small interface, with in-memory and filesystem
// implementations (see internal/store).  Config.Store shares one across
// the ranks of a spilled sort for its runs and checkpoint shards.
type Store = store.Store

// NewMemStore returns an in-memory Store: run semantics without touching
// disk (tests, and the chaos oracle's backing axis).
func NewMemStore() Store { return store.NewMem() }

// NewFSStore returns a filesystem Store rooted at dir: chunk-buffered
// sequential run files with CRC-digested footers.
func NewFSStore(dir string) Store { return store.NewFS(dir) }

// Uint64Spill returns cfg configured for an out-of-core uint64 sort:
// memBudget bytes of resident working set per rank (16 bytes per key in
// run records; a rank whose partition exceeds the budget sorts via spilled
// disk runs and a k-way external merge), with scratch runs — and, under
// fault injection, the partition's checkpoint shards — rooted at
// scratchDir.  An empty scratchDir keeps the runs in a run-private memory
// store — budget-bounded execution without a scratch directory, but no
// survivor can read a dead rank's shards (shrink recovery then needs
// Config.Store).  The output is bit-identical to the resident sort at
// identical parameters.
func Uint64Spill(cfg Config, memBudget int64, scratchDir string) Config {
	cfg.MemBudget = memBudget
	cfg.SpillDir = scratchDir
	return cfg
}

// Run executes fn once per rank on a fresh world of p ranks and waits for
// completion.  model selects virtual-time execution (nil = real time).
// Errors and panics from any rank abort the world and are joined into the
// returned error.
func Run(p int, model *CostModel, fn func(c *Comm) error) error {
	w, err := comm.NewWorld(p, model)
	if err != nil {
		return err
	}
	return w.Run(fn)
}

// RunWithFaults is Run under a seeded fault schedule: the world's links
// inject the plan's failures deterministically and the communication layer
// rides them out with retries, dedup and superstep checkpoint-recovery, so
// fn must still observe a correct sort.  A zero plan is exactly Run.
func RunWithFaults(p int, model *CostModel, plan FaultPlan, fn func(c *Comm) error) error {
	w, err := comm.NewWorldWithFaults(p, model, plan)
	if err != nil {
		return err
	}
	return w.Run(fn)
}

// RunTimedWithFaults is RunWithFaults additionally returning the execution
// makespan, for callers that account per-run time under fault injection
// (e.g. the sort service's dedicated-world jobs).
func RunTimedWithFaults(p int, model *CostModel, plan FaultPlan, fn func(c *Comm) error) (time.Duration, error) {
	w, err := comm.NewWorldWithFaults(p, model, plan)
	if err != nil {
		return 0, err
	}
	err = w.Run(fn)
	return w.Makespan(), err
}

// PersistentWorld is a reusable world: rank goroutines, per-rank clocks and
// communicator state survive across jobs, so successive sorts on the same
// world skip goroutine and comm-state construction — the warm-world
// substrate of the sort service's pool.  Per-job stats and clocks reset
// between jobs; a failed job breaks the world (see comm.PersistentWorld).
type PersistentWorld = comm.PersistentWorld

// ErrWorldBroken marks a persistent world poisoned by an earlier failed job.
var ErrWorldBroken = comm.ErrWorldBroken

// NewPersistentWorld creates a reusable world of p ranks; call Execute once
// per job (the reusable Run variant) and Close when done.  model selects
// virtual-time execution (nil = real time).
func NewPersistentWorld(p int, model *CostModel) (*PersistentWorld, error) {
	return comm.NewPersistentWorld(p, model)
}

// Spawned tracks rank goroutines admitted into a running world by
// World.Spawn; Wait joins their outcomes.
type Spawned = comm.Spawned

// AwaitGrow is the joiner's half of the grow collective: a rank spawned
// into a running world blocks on the sponsor's join ticket (sponsor is a
// world rank), builds the grown communicator from it, and synchronizes at
// the join barrier.  The incumbents' half is Comm.Grow; see internal/comm.
func AwaitGrow(c *Comm, sponsor int) *Comm {
	return comm.AwaitGrow(c, sponsor)
}

// GrowRebalance re-partitions sorted per-rank output onto a grown
// communicator: incumbents pass their partitions, joiners empty slices, and
// every rank receives its balanced share of the same global order —
// order-preserving diffusion over adjacent boundaries, priced on the
// virtual clock.  Collective on the communicator Grow/AwaitGrow returned.
func GrowRebalance[K any](c *Comm, out []K, ops keys.Ops[K], cfg Config) []K {
	return core.GrowRebalance(c, out, ops, cfg)
}

// RunTimed is Run, additionally returning the execution makespan: the
// maximum per-rank virtual completion time under a cost model, or the
// slowest rank's wall-clock time without one.
func RunTimed(p int, model *CostModel, fn func(c *Comm) error) (time.Duration, error) {
	w, err := comm.NewWorld(p, model)
	if err != nil {
		return 0, err
	}
	err = w.Run(fn)
	return w.Makespan(), err
}

// Sort sorts the distributed sequence whose share on this rank is local and
// returns this rank's partition of the global order.  Collective: every
// rank of c must call it with a consistent cfg.  See core.Sort for the
// full contract.
func Sort[K any](c *Comm, local []K, ops keys.Ops[K], cfg Config) ([]K, error) {
	return core.Sort(c, local, ops, cfg)
}

// SortResilient is Sort additionally returning the effective communicator
// the result lives on.  Without shrink recovery that is c itself; with
// cfg.Recovery == RecoveryShrink and a permanent rank death it is the
// shrunken survivor communicator — run collective follow-ups
// (IsGloballySorted, further sorts) on it.  A rank scheduled to die never
// returns; its goroutine exits inside the collective call and the world
// treats that as a clean exit.
func SortResilient[K any](c *Comm, local []K, ops keys.Ops[K], cfg Config) ([]K, *Comm, error) {
	return core.SortResilient(c, local, ops, cfg)
}

// NthElement returns the k-th smallest element (0-based) of the distributed
// sequence on every rank without sorting it — the dash::nth_element
// building block (Algorithm 1 of the paper).  Collective.
func NthElement[K any](c *Comm, local []K, k int64, ops keys.Ops[K]) (K, error) {
	return core.DSelect(c, local, k, ops, Config{})
}

// Ops supplies ordering and splitter-bisection operations for key type K;
// see the built-in instances (Uint64Ops, Float64Ops, ...) and keys.Ops for
// the contract.
type Ops[K any] = keys.Ops[K]

// Pair is a sortable record: a key plus opaque satellite data.
type Pair[K, V any] = keys.Pair[K, V]

// PairOps returns Ops for Pair records ordered by key, so satellite data
// travels with its key through the sort.
func PairOps[K, V any](base Ops[K]) Ops[Pair[K, V]] {
	return keys.NewPairOps[K, V](base)
}

// Plan is a partitioning decision computed without moving data; see
// MakePlan.
type Plan[K any] = core.Plan[K]

// MakePlan runs splitter determination and boundary refinement only,
// returning the exchange plan (splitters, per-rank cuts, send counts) with
// all data left in place — for applications that relocate their own
// payloads.  Collective.
func MakePlan[K any](c *Comm, local []K, ops Ops[K], cfg Config) (Plan[K], error) {
	return core.MakePlan(c, local, ops, cfg)
}

// ExecutePlan relocates a satellite slice according to a plan from
// MakePlan; see core.ExecutePlan for the ordering contract.  Collective.
func ExecutePlan[K, V any](c *Comm, pl Plan[K], values []V, cfg Config) ([]V, error) {
	return core.ExecutePlan(c, pl, values, cfg)
}

// Quantiles returns q-1 cut values splitting the distributed sequence into
// q equal-count buckets (an equi-depth histogram) without moving data.
// Collective.
func Quantiles[K any](c *Comm, local []K, q int, ops Ops[K]) ([]K, error) {
	return core.Quantiles(c, local, q, ops, Config{})
}

// GlobalArray is a PGAS-style block-distributed array with one-sided
// access and container-level Sort/NthElement/Quantiles — the DASH
// abstraction of the paper; see the garray package for the access rules.
type GlobalArray[K any] = garray.GlobalArray[K]

// NewGlobalArray collectively allocates a distributed array with the given
// local partition size on this rank; elemBytes prices remote accesses.
func NewGlobalArray[K any](c *Comm, localSize, elemBytes int) (*GlobalArray[K], error) {
	return garray.New[K](c, localSize, elemBytes)
}

// IsGloballySorted collectively verifies the sorted-output invariant and
// returns the verdict on every rank.
func IsGloballySorted[K any](c *Comm, local []K, ops keys.Ops[K]) bool {
	return core.IsGloballySorted(c, local, ops)
}
