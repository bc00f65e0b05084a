package comm

import (
	"fmt"
	"sort"
	"time"

	"dhsort/internal/fault"
	"dhsort/internal/simnet"
)

// Comm is one rank's handle on a communicator: a group of ranks that
// exchange messages in an isolated tag space.  Every rank holds its own
// *Comm value, confined to its rank goroutine.  The values of one
// communicator share an id, a group mapping and, in fault-free real-time
// worlds, the communicator's rendezvous, whose mutable state is guarded by
// its own mutex (rendezvous.go).
type Comm struct {
	w     *World
	id    uint64
	rank  int   // this rank within the communicator
	group []int // communicator rank -> world rank
	clock *simnet.Clock
	stats *Stats
	rdv   *rendezvous // cached World.rendezvousOf(id, size), see rendezvous

	seq    uint64 // per-rank collective sequence number (tag isolation)
	splits uint64 // number of Split calls issued on this comm
	grows  uint64 // number of Grow calls issued on this comm

	// freeLists holds this rank's free lists of recycled payload buffers,
	// one *freeList[B] per buffer type (see freeListOf).
	freeLists []any

	// Reliable-transport state, active only under fault injection.
	sendSeq map[sendFlow]uint64 // next sequence number per (dst, tag) flow
}

// sendFlow identifies one outgoing sequenced flow of a communicator: the
// destination's world rank and the tag.
type sendFlow struct{ wdst, tag int }

// newWorldComm builds rank's handle on the world communicator (id 1) over
// the first size world ranks.  size is passed explicitly (rather than read
// from the world) so all members of one cohort agree on the communicator
// extent even while the world is growing underneath them.
func newWorldComm(w *World, rank, size int) *Comm {
	group := make([]int, size)
	for i := range group {
		group[i] = i
	}
	return &Comm{
		w:     w,
		id:    1,
		rank:  rank,
		group: group,
		clock: simnet.NewClock(w.model),
		stats: &Stats{},
	}
}

// Rank returns this rank's index within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank returns this rank's index in the world communicator.
func (c *Comm) WorldRank() int { return c.group[c.rank] }

// Clock returns the rank's clock (virtual under a cost model).
func (c *Comm) Clock() *simnet.Clock { return c.clock }

// Model returns the world's cost model (nil in real-time mode).
func (c *Comm) Model() *simnet.CostModel { return c.w.model }

// Stats returns the rank's communication statistics accumulator (shared
// across all communicators derived from the world for this rank).
func (c *Comm) Stats() *Stats { return c.stats }

// send delivers payload to dst (communicator rank) under tag.  bytes is the
// payload's wire size; byteScale inflates it for bulk-data messages priced
// at a larger virtual volume (see Config.VirtualScale in the core package).
func (c *Comm) send(dst, tag int, payload any, bytes int, byteScale float64) {
	if dst < 0 || dst >= len(c.group) {
		panic(fmt.Sprintf("comm: send to rank %d outside communicator of size %d", dst, len(c.group)))
	}
	e := envelope{comm: c.id, src: c.rank, tag: tag, payload: payload}
	c.transmit(e, c.group[dst], simnet.Scaled(bytes, byteScale), twoSided)
}

// A carriage is how the transport prices, tallies and duplicates one kind of
// envelope (see transmit).
type carriage uint8

const (
	// twoSided: each injection keeps the sender busy and counts in its
	// link's tally, and the envelope arrives a latency after it.  An
	// injected duplicate is a second injection, without the jitter.
	twoSided carriage = iota
	// oneSided: a notification of internal/rma, which prices and tallies its
	// own traffic and gives the completion time as the envelope's arrival;
	// every retransmission wait moves it out.  An injected duplicate is an
	// exact copy.
	oneSided
	// ticket: two-sided pricing on a link assumed reliable.  The grow's join
	// ticket goes to a rank just spawned, with no flow to adjudicate.
	ticket
)

// Retransmission policy of the reliable transport: attempts are capped so a
// pathological schedule aborts with a diagnostic instead of looping, and the
// exponential backoff stops doubling once the timeout is astronomically
// larger than any sane RTT.
const (
	maxSendAttempts = 32
	maxBackoffShift = 10
)

// transmit is the one transport every envelope travels, from this rank to
// world rank wdst: it prices the envelope on the sender's clock, tallies it
// and delivers it.  vbytes is a two-sided payload's priced volume.  Under
// message fault injection a remote envelope is sequenced per (dst, tag) flow
// and each transmission attempt adjudicated: a dropped attempt costs the
// sender its busy time plus an exponentially backed-off retransmission
// timeout, a delay adds arrival jitter, a reorder jumps the receive queue,
// and a duplicate (a retransmission racing its own ack) carries the same
// sequence number, so the receiving mailbox restores order and discards it.
// Self-delivery is a local memory move, which real transports do not lose:
// it is never adjudicated.
func (c *Comm) transmit(e envelope, wdst, vbytes int, k carriage) {
	m, wsrc := c.w.model, c.group[c.rank]
	lc := simnet.SelfLink
	var busy, flight time.Duration
	if m != nil {
		lc = m.Topo.Link(wsrc, wdst)
		if k != oneSided {
			// LogGP-style: the sender is busy for o + bytes·G (injection,
			// serializing successive sends), the message then needs α more
			// to become available at the receiver.
			busy, flight = m.SendOverhead+m.InjectCost(wsrc, wdst, vbytes), m.Latency(wsrc, wdst)
		}
	}
	// inject pays one injection of a two-sided envelope and returns its
	// arrival; a one-sided envelope keeps the completion time at.
	inject := func(at time.Duration) time.Duration {
		if k == oneSided {
			return at
		}
		c.stats.record(lc, vbytes)
		if m == nil {
			return 0
		}
		c.clock.Advance(busy)
		return c.clock.Now() + flight
	}
	inj := c.w.inj
	if k == ticket || wsrc == wdst || !inj.MessageFaults() {
		e.arrival = inject(e.arrival)
		c.w.box(wdst).put(e)
		return
	}
	e.seq = c.nextSendSeq(wdst, e.tag)
	for attempt := 0; ; attempt++ {
		v := inj.Verdict(e.comm, wsrc, wdst, e.tag, e.seq, attempt)
		if v.Drop {
			if attempt+1 >= maxSendAttempts {
				// The link is dead for all practical purposes.  Typed, not a
				// panic string: the recovery layer treats it exactly like a
				// receive-side death detection and shrinks past the peer.
				panic(&FailureError{err: ErrRankDead, Rank: wdst, Comm: e.comm,
					Detail: fmt.Sprintf("message (tag=%d, seq=%d) lost %d consecutive times: link presumed dead", e.tag, e.seq, maxSendAttempts)})
			}
			c.stats.Fault.Drops++
			c.stats.Fault.Retries++
			if m != nil {
				// The lost attempt's injection was still paid, then the
				// sender waits out the backed-off timeout before retrying.
				wait := busy + m.RetryTimeout(lc)<<min(attempt, maxBackoffShift)
				c.clock.Advance(wait)
				e.arrival += wait
				c.stats.Fault.RetryNS += int64(wait)
			}
			continue
		}
		e.arrival = inject(e.arrival) + v.Delay
		e.front = v.Reorder
		if v.Delay > 0 {
			c.stats.Fault.Delays++
		}
		if v.Reorder {
			c.stats.Fault.Reorders++
		}
		if !v.Dup {
			c.w.box(wdst).put(e)
			return
		}
		// A two-sided copy is a second injection, without the original's
		// jitter; a one-sided copy is exact.  Both are enqueued atomically
		// (putPair), which keeps the receiver-side dedup counter
		// deterministic.
		c.stats.Fault.Dups++
		d := e
		d.arrival = inject(e.arrival)
		c.w.box(wdst).putPair(e, d)
		return
	}
}

// nextSendSeq reserves the next sequence number of the flow to world rank
// wdst under tag.
func (c *Comm) nextSendSeq(wdst, tag int) uint64 {
	if c.sendSeq == nil {
		c.sendSeq = make(map[sendFlow]uint64)
	}
	f := sendFlow{wdst, tag}
	c.sendSeq[f]++
	return c.sendSeq[f]
}

// FaultInjector returns the world's fault injector (nil in fault-free
// worlds — the common case, which callers gate on).
func (c *Comm) FaultInjector() *fault.Injector { return c.w.inj }

// recv blocks for a message from src (or AnySource) under tag and
// synchronizes the clock with its arrival.  Under fault injection the
// blocked receive raises ErrRankDead (through the typed-panic channel Try
// catches) if the awaited sender is registered dead — see failCheck for why
// revocation does not interrupt it.
func (c *Comm) recv(src, tag int) envelope {
	if src != AnySource && (src < 0 || src >= len(c.group)) {
		panic(fmt.Sprintf("comm: recv from rank %d outside communicator of size %d", src, len(c.group)))
	}
	return c.await(src, tag, c.failCheck(src, tag, false))
}

// await is the one receive step: it blocks in this rank's mailbox for a
// message of this communicator from src under tag, consulting the liveness
// predicate check (nil in fault-free worlds) while none is deliverable,
// counts the injected duplicates discarded on the way and synchronizes the
// clock with the arrival.
func (c *Comm) await(src, tag int, check func()) envelope {
	e, dups := c.w.box(c.group[c.rank]).get(c.id, src, tag, check)
	c.stats.Fault.Dedup += int64(dups)
	c.clock.Arrive(e.arrival)
	return e
}

// The protocol tags are one fixed table in the library-reserved space (>=
// UserTagLimit, see mailbox.go), the same on every communicator and for every
// job it runs: nothing is allocated, so nothing leaks or runs out.  The table
// sits well above the fused-exchange rounds [UserTagLimit, UserTagLimit+P)
// and below the recovery band (ulfmTagBase), so no two protocols collide.
// Reusing a tag across jobs is safe: every protocol receives exactly what it
// sends, and each (sender, tag) flow is delivered in order, so one job's
// messages are consumed before the next job's on the same tag.
const (
	protocolTagBase = UserTagLimit + 1<<20

	// FaultControlTag carries the fault plane's checkpoint descriptor ring.
	FaultControlTag = protocolTagBase
	// RMACountsTag and RMADataTag are the first of the two tags (creation
	// handshake, notifications) that each window of core's rma-put exchange
	// occupies: the P×P counts window and the data window.
	RMACountsTag = protocolTagBase + 1
	RMADataTag   = protocolTagBase + 3
)

// PostReliable delivers payload to dst under a protocol tag as a one-sided
// notification: internal/rma prices and tallies its own traffic, and
// arrival is the completion time it priced.  The notification rides the
// transport's retransmit loop like a two-sided message, so one-sided
// protocols survive message faults; the mailbox mutex provides the
// happens-before edge that makes the preceding direct memory writes visible
// to the receiver.
func (c *Comm) PostReliable(dst, tag int, payload any, arrival time.Duration) {
	checkProtocolTag(tag)
	e := envelope{comm: c.id, src: c.rank, tag: tag, arrival: arrival, payload: payload}
	c.transmit(e, c.WorldRankOf(dst), 0, oneSided)
}

// RecvRaw blocks for a PostReliable message from src (or AnySource) under a
// protocol tag, synchronizes the clock with its arrival, and returns the
// payload together with the sender's rank.
func (c *Comm) RecvRaw(src, tag int) (any, int) {
	checkProtocolTag(tag)
	e := c.recv(src, tag)
	return e.payload, e.src
}

// nextSeq reserves a tag block for one collective operation.  All ranks of
// a communicator execute the same sequence of collectives, so their
// per-rank counters stay aligned without coordination.
const tagRoundSpace = 1 << 21 // rounds per collective (supports P up to 2M)

func (c *Comm) nextSeq() int {
	c.seq++
	return -int(c.seq * tagRoundSpace) // negative: user tags are >= 0
}

// Split partitions the communicator by color, ordering ranks of each new
// communicator by (key, old rank), exactly like MPI_Comm_split.  It is a
// collective call; every rank must participate.  Ranks passing different
// colors end up in disjoint communicators with isolated tag spaces.
func (c *Comm) Split(color, key int) *Comm {
	type ck struct{ Color, Key, Rank int }
	all := AllgatherOne(c, ck{color, key, c.rank})
	var members []ck
	for _, e := range all {
		if e.Color == color {
			members = append(members, e)
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].Key != members[j].Key {
			return members[i].Key < members[j].Key
		}
		return members[i].Rank < members[j].Rank
	})
	group := make([]int, len(members))
	newRank := -1
	for i, m := range members {
		group[i] = c.group[m.Rank]
		if m.Rank == c.rank {
			newRank = i
		}
	}
	c.splits++
	return &Comm{
		w:     c.w,
		id:    splitID(c.id, c.splits, color),
		rank:  newRank,
		group: group,
		clock: c.clock,
		stats: c.stats,
	}
}

// splitID derives a child communicator identity deterministically, so every
// member rank computes the same id without extra communication.  FNV-1a
// over the (parent, epoch, color) triple.
func splitID(parent, epoch uint64, color int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range [3]uint64{parent, epoch, uint64(int64(color))} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	if h == 0 || h == 1 {
		h = 2 // ids 0 and 1 are reserved (unused / world)
	}
	return h
}

// WorldRankOf maps a communicator rank to its world rank (used by layers
// that price direct memory access against the topology).
func (c *Comm) WorldRankOf(rank int) int {
	if rank < 0 || rank >= len(c.group) {
		panic(fmt.Sprintf("comm: rank %d outside communicator of size %d", rank, len(c.group)))
	}
	return c.group[rank]
}
