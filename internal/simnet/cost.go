package simnet

import (
	"fmt"
	"math"
	"time"
)

// CostModel prices communication and computation on the modelled machine.
// A nil *CostModel means "real time": clocks read the wall clock and all
// cost functions are ignored.
type CostModel struct {
	Topo Topology
	// PGAS selects the intra-node transport pricing.  True models DASH on
	// MPI-3 shared-memory windows (intra-node traffic is a memcpy); false
	// models a conventional MPI stack where intra-node messages still pay
	// protocol latency and an extra copy (§VI-A1, §VI-D).
	PGAS bool

	// Alpha is the per-message latency per link class.
	Alpha [NumLinkClasses]time.Duration
	// GBps is the per-flow bandwidth per link class, in bytes/ns
	// (i.e. GB/s ≈ value × 1e9 bytes/s when expressed per nanosecond).
	GBps [NumLinkClasses]float64

	// CompareNs is the cost of one compare-and-move step of a local sort;
	// sorting n keys is priced CompareNs · n · log2(n).
	CompareNs float64
	// MergeNs is the per-element per-level cost of multiway merging.
	MergeNs float64
	// ScanNs is the per-element cost of linear passes (partitioning,
	// histogram counting, permutation application).
	ScanNs float64
	// RadixNs is the per-element per-executed-pass cost of the LSD radix
	// kernel (fused counting + scatter pipeline); zero falls back to
	// comparison-sort pricing so hand-built models stay valid.
	RadixNs float64
	// ThreadEff is the marginal efficiency of each additional fork-join
	// worker in the shared-memory kernels (1 = perfect scaling, 0 = no
	// speedup from threads) — the imperfect intra-node scaling of Fig. 4.
	ThreadEff float64
	// MemGBps is local memory copy bandwidth in bytes/ns.
	MemGBps float64
	// SendOverhead is the sender-side CPU cost per message (the "o" of
	// the LogP family); the receiver-side path is folded into Alpha.
	SendOverhead time.Duration

	// Resilience pricing (internal/fault).  Zero values fall back to
	// conservative derivations so hand-built models stay valid — see
	// RetryTimeout, CheckpointCost and RespawnCost in fault.go.

	// CkptGBps is the bandwidth of the checkpoint store in bytes/ns (a
	// per-rank share of a node-local burst buffer); zero falls back to
	// MemGBps.
	CkptGBps float64
	// CkptAlpha is the fixed per-checkpoint latency (metadata commit).
	CkptAlpha time.Duration
	// RespawnDelay is the time to restart a crashed rank's process before
	// it can restore its checkpoint.
	RespawnDelay time.Duration
}

// SuperMUC returns the cost model calibrated to Table I of the paper:
// 2 × Xeon E5-2697v3 (4 NUMA domains of 7 cores), Infiniband FDR14
// non-blocking fat tree, Intel MPI 2018.2.  ranksPerNode is 16 for the
// Charm++-comparison runs and 28 for full-node DASH runs.  pgas selects the
// shared-memory-window pricing for intra-node traffic.
func SuperMUC(ranksPerNode int, pgas bool) *CostModel {
	m := &CostModel{
		Topo:         Topology{RanksPerNode: ranksPerNode, NUMADomains: 4},
		PGAS:         pgas,
		CompareNs:    3.0,
		MergeNs:      1.6,
		ScanNs:       0.8,
		RadixNs:      1.5,
		ThreadEff:    0.85,
		MemGBps:      8.0,
		SendOverhead: 500 * time.Nanosecond,
		// Resilience calibration (extension, not from Table I): checkpoints
		// go to a node-local burst-buffer share, respawn covers process
		// restart + job-manager handshake.
		CkptGBps:     1.2,
		CkptAlpha:    25 * time.Microsecond,
		RespawnDelay: 2 * time.Millisecond,
	}
	// Network: FDR14 ≈ 56 Gbit/s per node shared by all ranks of the
	// node, so the per-flow share of a busy exchange is NIC/ranksPerNode
	// with ~protocol efficiency; α covers wire + MPI software path.
	m.Alpha[Network] = 5 * time.Microsecond
	m.GBps[Network] = 6.8 / float64(ranksPerNode)
	if pgas {
		// MPI-3 shared-memory windows: intra-node traffic is a memcpy
		// plus a cheap synchronization; per-rank share of the node's
		// memory bandwidth.
		m.Alpha[SameNUMA] = 300 * time.Nanosecond
		m.GBps[SameNUMA] = 4.0
		m.Alpha[CrossNUMA] = 600 * time.Nanosecond
		m.GBps[CrossNUMA] = 2.5
	} else {
		// Conventional MPI: protocol latency and double-copy through a
		// shared heap regardless of NUMA placement.
		m.Alpha[SameNUMA] = 1200 * time.Nanosecond
		m.GBps[SameNUMA] = 2.0
		m.Alpha[CrossNUMA] = 1500 * time.Nanosecond
		m.GBps[CrossNUMA] = 1.6
	}
	m.Alpha[SelfLink] = 50 * time.Nanosecond
	m.GBps[SelfLink] = 12.0
	return m
}

// ParseModel maps a cost-model name to its model at ranksPerNode ranks per
// node: "none" is real time (a nil model), "pgas" and "mpi" are SuperMUC
// with shared-memory-window or conventional-MPI intra-node pricing.
func ParseModel(name string, ranksPerNode int) (*CostModel, error) {
	switch name {
	case "none":
		return nil, nil
	case "pgas", "mpi":
		return SuperMUC(ranksPerNode, name == "pgas"), nil
	}
	return nil, fmt.Errorf("unknown cost model %q (want none|pgas|mpi)", name)
}

// MaxScaled caps every count a virtual scale inflates: 2^40 keys or bytes
// price in hours, inside the nanosecond clock's range.
const MaxScaled = 1 << 40

// Scaled returns the count the cost model prices for n keys or bytes at a
// virtual scale (a scale of zero or less counts as 1), saturating at
// MaxScaled, so that a larger scale never prices less than a smaller one.
// Every scaled count, a sorter's keys or a message's bytes, goes through it.
func Scaled(n int, scale float64) int {
	if scale <= 0 {
		scale = 1
	}
	return int(min(float64(n)*scale, MaxScaled))
}

// InjectCost is the time the sender's CPU/NIC is busy pushing the message
// out (bytes over the per-flow bandwidth).  Successive sends from one rank
// serialize on this cost, which is what makes a P-message exchange cost the
// rank its full outgoing volume rather than a single transfer.
func (m *CostModel) InjectCost(src, dst, bytes int) time.Duration {
	lc := m.Topo.Link(src, dst)
	return time.Duration(float64(bytes) / m.GBps[lc])
}

// Latency is the in-flight time after injection until the message is
// available at the receiver.
func (m *CostModel) Latency(src, dst int) time.Duration {
	return m.Alpha[m.Topo.Link(src, dst)]
}

// MsgCost returns the virtual transfer time of a message of the given size
// from rank src to rank dst: α(link) + bytes/β(link).
func (m *CostModel) MsgCost(src, dst, bytes int) time.Duration {
	lc := m.Topo.Link(src, dst)
	return m.Alpha[lc] + time.Duration(float64(bytes)/m.GBps[lc])
}

// One-sided (RMA) pricing, used by internal/rma.  The model distinguishes
// the two transports of §VI-A1/§VI-D: under PGAS, intra-node windows are
// MPI-3 shared memory, so a put is a single memcpy at full memory bandwidth
// with no rendezvous, no send overhead and no protocol latency, and a
// notification is a flag store that is visible as soon as the data is;
// under a conventional MPI stack a put is emulated by an internal send and
// a notification needs a flush round trip followed by a small message —
// DART-MPI's exact overhead on clusters without native put+notify.

// RMAPutCost prices a one-sided put of bytes from world rank src into
// dst's window.  busy is the time the origin CPU/NIC is occupied (successive
// puts serialize on it); completion is the additional in-flight time until
// the data is remotely visible at the target.
func (m *CostModel) RMAPutCost(src, dst, bytes int) (busy, completion time.Duration) {
	lc := m.Topo.Link(src, dst)
	if m.PGAS && lc != Network {
		// Shared-memory window: the put IS the memcpy.  Unlike a
		// two-sided send (copy into a shared heap, copy out at the
		// receiver — the halved effective GBps of the link class), the
		// origin writes the target's window directly at full memory
		// bandwidth, and the data is visible the moment the copy ends.
		return time.Duration(float64(bytes) / m.MemGBps), 0
	}
	// RDMA put over the network, or a put emulated over conventional MPI
	// intra-node: the same injection pipeline as a two-sided eager send.
	return m.SendOverhead + time.Duration(float64(bytes)/m.GBps[lc]), m.Alpha[lc]
}

// RMANotifyCost prices the put-notification signalling remote completion to
// the target (DART's put+notify).  busy is origin CPU time; delay is the
// in-flight time until the target can consume the notification, counted
// after the notified put has remotely completed.
func (m *CostModel) RMANotifyCost(src, dst int) (busy, delay time.Duration) {
	lc := m.Topo.Link(src, dst)
	if m.PGAS && lc != Network {
		// A flag store in the shared window, ordered after the memcpy.
		return 0, 0
	}
	if m.PGAS {
		// RDMA write-with-immediate: one extra small NIC message.
		return m.SendOverhead, m.Alpha[lc]
	}
	// Conventional MPI has no native notify: emulate with a flush (round
	// trip, 2α) to guarantee remote completion, then a small send.
	return 2*m.Alpha[lc] + m.SendOverhead, m.Alpha[lc]
}

// SortCost prices a local comparison sort of n keys.
func (m *CostModel) SortCost(n int) time.Duration {
	if n < 2 {
		return 0
	}
	return time.Duration(m.CompareNs * float64(n) * math.Log2(float64(n)))
}

// RadixSortCost prices a plain LSD radix sort of n keys: one scatter pass per
// digit on which the keys differ (constant digits are skipped, so the count
// is data-dependent but deterministic).  That count is what the sortutil
// kernels return; the host kernel may finish in fewer passes, the modelled
// machine runs the paper's sort.  Models without a calibrated RadixNs price
// it as the comparison sort they were built for.
func (m *CostModel) RadixSortCost(n, passes int) time.Duration {
	if n < 2 {
		return 0
	}
	if m.RadixNs == 0 {
		return m.SortCost(n)
	}
	if passes < 1 {
		passes = 1
	}
	return time.Duration(m.RadixNs * float64(n) * float64(passes))
}

// Threaded scales a compute cost by the fork-join speedup of `threads`
// workers, 1 + ThreadEff·(threads−1).  With ThreadEff zero (uncalibrated
// models) or a single thread the cost is unchanged.
func (m *CostModel) Threaded(d time.Duration, threads int) time.Duration {
	if threads <= 1 || m.ThreadEff == 0 {
		return d
	}
	return time.Duration(float64(d) / (1 + m.ThreadEff*float64(threads-1)))
}

// MergeCost prices merging n keys from k sorted runs (n · log2 k element
// steps; k ≤ 1 degenerates to a copy).
func (m *CostModel) MergeCost(n, k int) time.Duration {
	if n == 0 {
		return 0
	}
	levels := math.Log2(float64(k))
	if levels < 1 {
		levels = 1
	}
	return time.Duration(m.MergeNs * float64(n) * levels)
}

// SearchCost prices s binary searches over n sorted keys.
func (m *CostModel) SearchCost(n, s int) time.Duration {
	if n < 2 || s == 0 {
		return 0
	}
	return time.Duration(m.CompareNs * float64(s) * math.Log2(float64(n)))
}

// ScanCost prices a linear pass over n keys.
func (m *CostModel) ScanCost(n int) time.Duration {
	return time.Duration(m.ScanNs * float64(n))
}

// SelectCost prices an expected-linear selection over n keys.
func (m *CostModel) SelectCost(n int) time.Duration {
	return time.Duration(m.CompareNs * 2 * float64(n))
}
