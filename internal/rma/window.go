// Package rma is the one-sided communication subsystem: MPI-3 RMA windows
// with DART-style put-with-notification — the substrate the paper's DASH
// implementation runs on (§VI-A1).
//
// A Window is a symmetric allocation collective over a communicator: every
// rank contributes a local region and receives direct addressability of all
// peers' regions (the simulator's analogue of MPI_Win_allocate /
// MPI_Win_allocate_shared — rank goroutines share an address space, so a
// put is a real memcpy into the target's backing array).  Synchronization
// and pricing follow the one-sided model:
//
//   - The origin pays the put's injection cost on its virtual clock
//     (simnet.CostModel.RMAPutCost); the target pays nothing until it
//     consumes a notification.  There is no rendezvous.
//   - Under PGAS pricing, intra-node puts are single memcpys into the
//     shared window at full memory bandwidth; under conventional-MPI
//     pricing they are emulated sends and notifications cost a flush round
//     trip (the DART-MPI overhead).
//   - Happens-before for the race detector: a put writes the target's
//     memory directly on the origin goroutine, and the subsequent
//     notification travels through the mailbox mutex, so the target's reads
//     after WaitNotify are ordered after the writes.
//     Accessing a window region that has not been synchronized is a data
//     race, exactly as in MPI.
package rma

import (
	"fmt"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/simnet"
)

// notifyMsg is the payload of a put-notification.
type notifyMsg struct {
	Off, N int // window region the notified put covered
	Value  int // caller-chosen notification value (e.g. a round number)
}

// Notification reports one consumed put-notification.
type Notification struct {
	Origin int // rank that issued PutNotify
	Off    int // target-window offset of the notified put
	N      int // element count of the notified put
	Value  int // caller-chosen value passed to PutNotify
}

// Window is one rank's handle on a symmetric RMA window.  Like *comm.Comm
// it is confined to its rank goroutine; the peers' values share the
// published regions but no mutable bookkeeping.
type Window[T any] struct {
	c *comm.Comm
	// peers holds every rank's published region, indexed by communicator
	// rank: the slice headers share the backing arrays across goroutines.
	peers [][]T
	mine  []T // peers[rank]

	handleTag int // protocol tag of the creation handshake
	notifyTag int // protocol tag of the notification queue

	// pending[d] is the latest remote-completion time among the puts to
	// rank d (virtual mode only).
	pending []time.Duration
}

// New collectively allocates a window with localLen elements at every rank
// (lengths may differ per rank, MPI_Win_allocate style).  The window
// occupies the protocol tags tag (creation handshake) and tag+1
// (notifications), which every rank of c must pass alike and no other live
// window may use (the caller's protocol owns them, like comm.RMADataTag).
// It returns once every peer's region is addressable, which orders any
// subsequent PutNotify after all allocations.
func New[T any](c *comm.Comm, tag, localLen int) *Window[T] {
	if localLen < 0 {
		panic("rma: negative window length")
	}
	w := &Window[T]{
		c:         c,
		peers:     make([][]T, c.Size()),
		handleTag: tag,
		notifyTag: tag + 1,
		pending:   make([]time.Duration, c.Size()),
	}
	w.mine = make([]T, localLen)
	w.peers[c.Rank()] = w.mine

	// Publish the region to every peer and collect theirs.  The
	// exchange is priced as the shared-memory mapping it models: one small
	// control message per peer (α of the link class), no bulk volume.
	model := c.Model()
	for i := 1; i < c.Size(); i++ {
		dst := (c.Rank() + i) % c.Size()
		var arrival time.Duration
		if model != nil {
			arrival = c.Clock().Now() + model.Latency(c.WorldRank(), c.WorldRankOf(dst))
		}
		c.PostReliable(dst, w.handleTag, w.mine, arrival)
	}
	for src := 0; src < c.Size(); src++ {
		if src == c.Rank() {
			continue
		}
		payload, _ := c.RecvRaw(src, w.handleTag)
		w.peers[src] = payload.([]T)
	}
	return w
}

// Local returns this rank's window region.  Reading a sub-region that a
// peer has put into is only defined after consuming the matching
// notification.
func (w *Window[T]) Local() []T { return w.mine }

func (w *Window[T]) checkRegion(rank, off, n int) {
	if rank < 0 || rank >= len(w.peers) {
		panic(fmt.Sprintf("rma: rank %d outside communicator of size %d", rank, len(w.peers)))
	}
	if off < 0 || n < 0 || off+n > len(w.peers[rank]) {
		panic(fmt.Sprintf("rma: region [%d,%d) outside rank %d's window of %d elements",
			off, off+n, rank, len(w.peers[rank])))
	}
}

// put copies data into dst's window starting at element off and returns the
// link class.  It returns when the transfer is locally complete (data is
// reusable); the origin's clock pays the injection cost and pending[dst]
// records the remote completion.  Concurrent puts into overlapping regions
// are undefined, as in MPI.
func (w *Window[T]) put(dst, off int, data []T, byteScale float64) simnet.LinkClass {
	w.c.CheckRevoked()
	w.checkRegion(dst, off, len(data))
	vbytes := simnet.Scaled(len(data)*comm.ElemBytes[T](), byteScale)
	lc := simnet.SelfLink
	if m := w.c.Model(); m != nil {
		lc = m.Topo.Link(w.c.WorldRank(), w.c.WorldRankOf(dst))
		busy, completion := m.RMAPutCost(w.c.WorldRank(), w.c.WorldRankOf(dst), vbytes)
		w.c.Clock().Advance(busy)
		if done := w.c.Clock().Now() + completion; done > w.pending[dst] {
			w.pending[dst] = done
		}
	}
	copy(w.peers[dst][off:off+len(data)], data)
	w.c.Stats().RecordPut(lc, vbytes)
	return lc
}

// PutNotify copies data into dst's window starting at element off, followed
// by a notification that dst can consume with WaitNotify once the data is
// remotely visible: the paper's put+notify primitive.  value travels with
// the notification (round numbers, record counts — any small tag the
// receiver wants back).
func (w *Window[T]) PutNotify(dst, off int, data []T, value int) {
	w.PutNotifyScaled(dst, off, data, value, 1)
}

// PutNotifyScaled is PutNotify with bulk-data byte pricing.
func (w *Window[T]) PutNotifyScaled(dst, off int, data []T, value int, byteScale float64) {
	lc := w.put(dst, off, data, byteScale)
	var arrival time.Duration
	if m := w.c.Model(); m != nil {
		busy, delay := m.RMANotifyCost(w.c.WorldRank(), w.c.WorldRankOf(dst))
		w.c.Clock().Advance(busy)
		// The notification is consumable only after the put it flags has
		// remotely completed.
		arrival = w.c.Clock().Now()
		if w.pending[dst] > arrival {
			arrival = w.pending[dst]
		}
		arrival += delay
	}
	// The notification rides the reliable transport: under drop injection it
	// is sequenced, retransmitted and deduplicated like a two-sided message,
	// so the put-based exchange survives lossy links.
	w.c.PostReliable(dst, w.notifyTag, notifyMsg{Off: off, N: len(data), Value: value}, arrival)
	w.c.Stats().RecordNotify(lc)
}

// WaitNotify blocks until a notification from src (or comm.AnySource)
// arrives on this window's queue and returns it.  Consuming the
// notification synchronizes the local clock with the notified put's remote
// completion and orders subsequent reads of the flagged region after the
// origin's writes.
func (w *Window[T]) WaitNotify(src int) Notification {
	w.c.CheckRevoked()
	payload, origin := w.c.RecvRaw(src, w.notifyTag)
	n := payload.(notifyMsg)
	return Notification{Origin: origin, Off: n.Off, N: n.N, Value: n.Value}
}
