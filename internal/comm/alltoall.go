package comm

import (
	"fmt"
	"iter"

	"dhsort/internal/simnet"
)

// AlltoallAlgorithm selects the exchange schedule for AlltoallWith and
// AlltoallvWith — the tuning space §VI-E1 describes: "For a relatively small
// N/P we utilize store-and-forward algorithms which communicate data in
// intermediate steps in ceil(log p) rounds.  For larger messages we schedule
// flat handshakes or 1-factorization algorithms to trade off latency and
// bandwidth bottlenecks."
type AlltoallAlgorithm int

const (
	// AlltoallAuto picks Bruck for small blocks (latency-bound) and the
	// 1-factor schedule for large blocks (bandwidth-bound).
	AlltoallAuto AlltoallAlgorithm = iota
	// AlltoallPairwise is the linear shifted exchange: P rounds, rank r
	// sends to r+i and receives from r-i in round i.
	AlltoallPairwise
	// AlltoallOneFactor schedules the rounds as a 1-factorization of the
	// complete graph [34][35]: every round is a perfect matching, so no
	// rank ever has two partners in flight.
	AlltoallOneFactor
	// AlltoallBruck is the store-and-forward algorithm: ceil(log2 P)
	// rounds; each block travels up to log2 P hops, trading bandwidth
	// for latency — the small-message regime.
	AlltoallBruck
	// AlltoallHierarchical aggregates through node leaders (§VI-E1,
	// alltoallHier): the nodes are the cost model's, so it needs a model
	// with more than one rank per node and is the 1-factor schedule in any
	// other world (EffectiveSchedule).
	AlltoallHierarchical
	// ExchangeRMAPut selects the one-sided data exchange: every rank puts
	// its partitions directly into symmetric rma windows at
	// exscan-computed target offsets and the receiver consumes
	// notifications (the paper's DASH/DART put+notify substrate).  The put
	// rounds exist only fused with core's merge; a block collective
	// (AlltoallWith, core.ExecutePlan) runs the 1-factor schedule for it.
	ExchangeRMAPut
)

// String returns the algorithm name.
func (a AlltoallAlgorithm) String() string {
	switch a {
	case AlltoallAuto:
		return "auto"
	case AlltoallPairwise:
		return "pairwise"
	case AlltoallOneFactor:
		return "one-factor"
	case AlltoallBruck:
		return "bruck"
	case AlltoallHierarchical:
		return "hierarchical"
	case ExchangeRMAPut:
		return "rma-put"
	}
	return fmt.Sprintf("AlltoallAlgorithm(%d)", int(a))
}

// MarshalText encodes the algorithm as its name.
func (a AlltoallAlgorithm) MarshalText() ([]byte, error) {
	return []byte(a.String()), nil
}

// UnmarshalText inverts MarshalText; the empty name is AlltoallAuto.
func (a *AlltoallAlgorithm) UnmarshalText(name []byte) error {
	for v := AlltoallAuto; v <= ExchangeRMAPut; v++ {
		if v.String() == string(name) || len(name) == 0 {
			*a = v
			return nil
		}
	}
	return fmt.Errorf("unknown exchange algorithm %q", name)
}

// bruckCutoffBytes is the Auto threshold: blocks at or below this size are
// latency-bound and use store-and-forward.
const bruckCutoffBytes = 2048

// EffectiveSchedule returns the schedule AlltoallWith runs on c for alg — the
// name a metrics record must carry.  It is alg, except where the world cannot
// run it: the leader scheme needs a cost model with more than one rank per
// node, and the put exchange exists only fused with core's merge; both are
// the 1-factor schedule otherwise.  AlltoallAuto stays itself: it decides
// per call.
func EffectiveSchedule(c *Comm, alg AlltoallAlgorithm) AlltoallAlgorithm {
	switch alg {
	case AlltoallHierarchical:
		if m := c.Model(); m != nil && m.Topo.RanksPerNode > 1 {
			return alg
		}
		return AlltoallOneFactor
	case ExchangeRMAPut:
		return AlltoallOneFactor
	}
	return alg
}

// AlltoallWith exchanges blocks[i] to rank i under the schedule
// EffectiveSchedule picks for alg and returns the received blocks indexed by
// sender: consecutive views of recv, in sender order, each capped at its
// length.  recv is grown when its capacity is short of what arrives (nil
// means allocate) and must not overlap blocks.  The caller may overwrite its
// blocks as soon as the call returns.  All ranks must pass the same
// algorithm.  byteScale prices payloads at a multiple of their size.
func AlltoallWith[T any](c *Comm, blocks [][]T, alg AlltoallAlgorithm, byteScale float64, recv []T) [][]T {
	_, out := alltoallInto(c, blocks, alg, byteScale, recv)
	return out
}

// alltoallInto is AlltoallWith also returning the filled receive buffer.  A
// shared-memory world runs every schedule as one rendezvous
// (alltoallRendezvous); elsewhere the schedule's messages are copied into the
// buffer once they have all landed — a host-side copy, invisible to the
// clock and to Stats.
func alltoallInto[T any](c *Comm, blocks [][]T, alg AlltoallAlgorithm, byteScale float64, recv []T) ([]T, [][]T) {
	p := c.Size()
	if len(blocks) != p {
		panic(fmt.Sprintf("comm: Alltoall needs %d blocks, got %d", p, len(blocks)))
	}
	sched := EffectiveSchedule(c, alg)
	if sched == AlltoallAuto {
		// Decide by the average *priced* block size (the virtual volume
		// when byteScale inflates reduced-scale experiments).  The decision
		// must be identical on every rank, so use the global average in one
		// reduction.
		myBytes := 0
		for _, b := range blocks {
			myBytes += len(b) * ElemBytes[T]()
		}
		vbytes := int64(simnet.Scaled(myBytes, max(byteScale, 1)))
		sched = AlltoallOneFactor
		if AllreduceOne(c, vbytes, func(a, b int64) int64 { return a + b })/int64(p*p) <= bruckCutoffBytes {
			sched = AlltoallBruck
		}
	}
	if c.w.sharedMemory() {
		return alltoallRendezvous(c, blocks, sched, byteScale, recv)
	}
	return alltoallMessages(c, blocks, sched, byteScale, recv)
}

// alltoallMessages runs schedule sched as messages and lands what arrives in
// recv.
func alltoallMessages[T any](c *Comm, blocks [][]T, sched AlltoallAlgorithm, byteScale float64, recv []T) ([]T, [][]T) {
	var got [][]T
	if sched == AlltoallHierarchical {
		got = alltoallHier(c, blocks, byteScale)
	} else {
		got = exchangeRounds(c, blocks, sched, byteScale)
	}
	return land(recv, len(got), func(src int) []T { return got[src] })
}

// round is one step of an ALLTOALL schedule as one rank runs it: under tag
// offset tag it sends one message to rank to, then receives one from rank
// from.  A block is named by its distance δ = (dst − src) mod p and its
// origin src.  A direct round (bit 0) carries one block, the sender's own
// for to.  A store-and-forward round carries every block at the sender
// whose distance has bit set; the blocks that have not reached their
// destination travel on in later rounds, and each is priced with a 16-byte
// (src, dst) header on every hop.
type round struct{ tag, to, from, bit int }

// header is the priced size of a carried block's header.
func (rd round) header() int {
	if rd.bit != 0 {
		return 16
	}
	return 0
}

// A round carries from rank at to rank to the blocks of the distances
// first, next(first), … below p, in the order its message holds them: the
// sender's own block for to, or — store-and-forward — every distance with
// bit set, ascending.  A loop rather than an iterator: the rendezvous walks
// it on every exchange, and its generic caller did not inline an iterator's
// body.

// first is the distance of the first block the round carries.
func (rd round) first(p, at, to int) int {
	if rd.bit == 0 {
		return (to - at + p) % p
	}
	return rd.bit
}

// next is the distance of the block after delta's, or p after the last.
func (rd round) next(p, delta int) int {
	if rd.bit == 0 {
		return p
	}
	return (delta + 1) | rd.bit
}

// origin is the rank the block of distance delta held at rank at came
// from: at itself in a direct round, the rank at − (δ mod bit) in a
// store-and-forward one.
func (rd round) origin(p, at, delta int) int {
	if rd.bit == 0 {
		return at
	}
	return (at - delta&(rd.bit-1) + p) % p
}

// rounds yields the rounds rank me of p runs under sched — the one
// description of each exchange schedule, which the message executor
// (exchangeRounds) sends and the rendezvous tallies.  Pairwise: p direct
// rounds, round i to me+i and from me−i (round 0 to itself).  1-factor:
// one direct round with the partner of each matching, none where the rank
// idles.  Bruck: ceil(log2 p) store-and-forward rounds, round k to me+2^k
// and from me−2^k, carrying the distances with bit k set.
func rounds(sched AlltoallAlgorithm, p, me int) iter.Seq[round] {
	return func(yield func(round) bool) {
		switch sched {
		case AlltoallPairwise:
			for i := 0; i < p; i++ {
				if !yield(round{tag: i, to: (me + i) % p, from: (me - i + p) % p}) {
					return
				}
			}
		case AlltoallOneFactor:
			for r := 0; r < oneFactorRounds(p); r++ {
				if j := oneFactorPartner(p, r, me); j >= 0 && !yield(round{tag: r, to: j, from: j}) {
					return
				}
			}
		case AlltoallBruck:
			for k, bit := 0, 1; bit < p; k, bit = k+1, bit<<1 {
				if !yield(round{tag: k, to: (me + bit) % p, from: (me - bit + p) % p, bit: bit}) {
					return
				}
			}
		}
	}
}

// OneFactorSchedule yields rank me's rounds of the 1-factor schedule on p
// ranks — rounds(AlltoallOneFactor, p, me) — as the round index and the
// partner, skipping the rounds where me idles.
func OneFactorSchedule(p, me int) iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		for rd := range rounds(AlltoallOneFactor, p, me) {
			if !yield(rd.tag, rd.to) {
				return
			}
		}
	}
}

// oneFactorPartner returns rank's partner in the given round of the
// 1-factorization of K_p, or -1 when the rank idles (odd p only).
// Odd p: p rounds, partner j solves rank+j ≡ round (mod p); the rank with
// 2·rank ≡ round idles.  Even p: p-1 rounds over the first p-1 ranks with
// rank p-1 pairing the round's fixed point.  oneFactorRounds gives the
// round count.
func oneFactorPartner(p, round, rank int) int {
	if p%2 == 1 {
		j := ((round-rank)%p + p) % p
		if j == rank {
			return -1
		}
		return j
	}
	// Circle method: ranks 0..p-2 pair by rank+partner ≡ round (mod p-1);
	// the rank that would pair with itself pairs the fixed player p-1
	// instead (that rank solves 2x ≡ round, unique since p-1 is odd).
	m := p - 1
	r := round % m
	if rank == p-1 {
		return r * (m + 1) / 2 % m
	}
	j := ((r-rank)%m + m) % m
	if j == rank {
		return p - 1
	}
	return j
}

// roundBuf is the list of blocks one round's message carries, views of the
// origins' private copies of what they send, which nobody writes again: a
// hop forwards the reference, not the elements.
type roundBuf[T any] struct{ blocks [][]T }

// exchangeRounds is the message executor of every schedule rounds
// describes.  It returns the received blocks indexed by sender.  The rank
// copies what it sends once, into one array; at[δ] is the block of distance
// δ the rank holds — its own for me+δ until that leaves, then the one in
// transit, of which there is exactly one per distance after each round.  A
// round's message is one roundBuf from the rank's free list, which goes
// onto the receiver's once read — private, unrecycled lists whenever the
// injector adjudicates message faults (see sendReduce) — so a warm exchange
// allocates only its tables and the copy.
func exchangeRounds[T any](c *Comm, blocks [][]T, sched AlltoallAlgorithm, byteScale float64) [][]T {
	base := c.nextSeq()
	p, me := c.Size(), c.rank
	eb := ElemBytes[T]()
	bufs := freeListOf[roundBuf[T]](c)
	recycle := !c.w.inj.MessageFaults()
	get := func() *roundBuf[T] {
		if recycle {
			return bufs.get()
		}
		return &roundBuf[T]{}
	}

	sending := 0
	for _, b := range blocks {
		sending += len(b)
	}
	mine := make([]T, 0, sending)
	tables := make([][]T, 2*p) // one allocation for both
	at, out := tables[:p], tables[p:]
	for delta := range at {
		start := len(mine)
		mine = append(mine, blocks[(me+delta)%p]...)
		at[delta] = mine[start:len(mine):len(mine)]
	}
	out[me] = at[0]

	for rd := range rounds(sched, p, me) {
		msg, nbytes := get(), 0
		for delta := rd.first(p, me, rd.to); delta < p; delta = rd.next(p, delta) {
			msg.blocks = append(msg.blocks, at[delta])
			nbytes += len(at[delta])*eb + rd.header()
		}
		c.send(rd.to, base+rd.tag, msg, nbytes, byteScale)

		in := c.recv(rd.from, base+rd.tag).payload.(*roundBuf[T])
		i := 0
		for delta := rd.first(p, rd.from, me); delta < p; delta = rd.next(p, delta) {
			if src := rd.origin(p, rd.from, delta); (src+delta)%p == me {
				out[src] = in.blocks[i]
			} else {
				at[delta] = in.blocks[i]
			}
			i++
		}
		if recycle {
			// Cleared, so that a parked list pins nobody's elements.
			clear(in.blocks)
			in.blocks = in.blocks[:0]
			bufs.put(in)
		}
	}
	return out
}

// oneFactorRounds returns the number of matching rounds of the
// 1-factorization of K_p.
func oneFactorRounds(p int) int {
	if p%2 == 0 {
		return p - 1
	}
	return p
}

// AlltoallvWith exchanges a contiguous buffer partitioned by sendCounts
// (sendCounts[i] elements go to rank i) and returns the received buffer in
// rank order with its counts — MPI_Alltoallv, the single data-movement round
// of the sorting algorithms (§V-B) — under the exchange schedule
// AlltoallWith runs for alg.
func AlltoallvWith[T any](c *Comm, data []T, sendCounts []int, alg AlltoallAlgorithm, byteScale float64) ([]T, []int) {
	p := c.Size()
	if len(sendCounts) != p {
		panic(fmt.Sprintf("comm: Alltoallv needs %d counts, got %d", p, len(sendCounts)))
	}
	blocks := make([][]T, p)
	off := 0
	for i, n := range sendCounts {
		if n < 0 {
			panic("comm: negative send count")
		}
		if off+n > len(data) {
			panic("comm: send counts exceed buffer length")
		}
		blocks[i] = data[off : off+n]
		off += n
	}
	if off != len(data) {
		panic(fmt.Sprintf("comm: send counts sum to %d, buffer has %d", off, len(data)))
	}
	out, recvBlocks := alltoallInto(c, blocks, alg, byteScale, nil)
	recvCounts := make([]int, p)
	for i, b := range recvBlocks {
		recvCounts[i] = len(b)
	}
	return out, recvCounts
}
