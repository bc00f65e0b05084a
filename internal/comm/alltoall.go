package comm

import "fmt"

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
		var myBytes int64
		for _, b := range blocks {
			myBytes += int64(len(b) * elemBytes[T]())
		}
		if byteScale > 1 {
			myBytes = int64(float64(myBytes) * byteScale)
		}
		sched = AlltoallOneFactor
		if AllreduceOne(c, myBytes, func(a, b int64) int64 { return a + b })/int64(p*p) <= bruckCutoffBytes {
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
	switch sched {
	case AlltoallPairwise:
		got = alltoallPairwise(c, blocks, byteScale)
	case AlltoallOneFactor:
		got = alltoallOneFactor(c, blocks, byteScale)
	case AlltoallBruck:
		got = alltoallBruckMessages(c, blocks, byteScale)
	case AlltoallHierarchical:
		got = alltoallHier(c, blocks, byteScale)
	}
	return land(recv, len(got), func(src int) []T { return got[src] })
}

// OneFactorPartner returns rank's partner in the given round of the
// 1-factorization of K_p, or -1 when the rank idles (odd p only).
// Odd p: p rounds, partner j solves rank+j ≡ round (mod p); the rank with
// 2·rank ≡ round idles.  Even p: p-1 rounds over the first p-1 ranks with
// rank p-1 pairing the round's fixed point.  OneFactorRounds gives the
// round count.
func OneFactorPartner(p, round, rank int) int {
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

// alltoallOneFactor runs the exchange as a sequence of perfect matchings.
func alltoallOneFactor[T any](c *Comm, blocks [][]T, byteScale float64) [][]T {
	base := c.nextSeq()
	p := c.Size()
	out := make([][]T, p)
	out[c.Rank()] = blocks[c.Rank()] // alltoallInto copies it out with the rest
	for r := 0; r < OneFactorRounds(p); r++ {
		partner := OneFactorPartner(p, r, c.Rank())
		if partner < 0 {
			continue
		}
		sendSlice(c, partner, base+r, blocks[partner], byteScale)
		out[partner] = recvSlice[T](c, partner, base+r)
	}
	return out
}

// bruckBlock is one block of the store-and-forward exchange on its way from
// rank src to rank dst.  data points into the origin's private copy of what
// it sends, which nobody writes again: a hop forwards the reference, not the
// elements.  On the wire it is priced as the elements plus the 16 bytes of a
// (src, dst) header, on every hop.
type bruckBlock[T any] struct {
	src, dst int32
	data     []T
}

// bruckBuf is a flat list of blocks: the ones a rank holds in transit, or a
// round's message.
type bruckBuf[T any] struct{ blocks []bruckBlock[T] }

// alltoallBruckMessages is the store-and-forward schedule: in round k every
// rank forwards the blocks whose remaining relative distance (dst - here) mod p
// has bit k set to the rank 2^k away, so each block travels at most
// ceil(log2 p) hops and every rank sends exactly that many messages.  The
// rank copies what it sends once, into one array; its own blocks leave in the
// round of their distance's lowest set bit, the foreign ones it holds in
// transit close ranks in one list.  A round's message is one bruckBuf from
// the rank's free list, which goes onto the receiver's once read — private,
// unrecycled lists whenever the injector adjudicates message faults (see
// sendReduce) — so a warm exchange allocates only its result: the block
// table and the copy.
func alltoallBruckMessages[T any](c *Comm, blocks [][]T, byteScale float64) [][]T {
	base := c.nextSeq()
	p, me := c.Size(), c.rank
	eb := elemBytes[T]()
	bufs := freeListOf[bruckBuf[T]](c)
	recycle := !c.w.inj.MessageFaults()
	get := func() *bruckBuf[T] {
		if recycle {
			return bufs.get()
		}
		return &bruckBuf[T]{}
	}
	// put recycles a list that is done with; its entries are cleared so that
	// a parked list pins nobody's elements.
	put := func(b *bruckBuf[T]) {
		if recycle {
			clear(b.blocks)
			b.blocks = b.blocks[:0]
			bufs.put(b)
		}
	}

	sending := 0
	for _, b := range blocks {
		sending += len(b)
	}
	mine := make([]T, 0, sending)
	own := func(dst int) []T {
		at := len(mine)
		mine = append(mine, blocks[dst]...)
		return mine[at:len(mine):len(mine)]
	}
	out := make([][]T, p)
	out[me] = own(me)

	held := get()
	for k, bit := 0, 1; bit < p; k, bit = k+1, bit<<1 {
		fwd, nbytes := get(), 0
		for rel := bit; rel < p; rel += 2 * bit {
			dst := (me + rel) % p
			fwd.blocks = append(fwd.blocks, bruckBlock[T]{int32(me), int32(dst), own(dst)})
			nbytes += len(blocks[dst])*eb + 16
		}
		keep := held.blocks[:0]
		for _, b := range held.blocks {
			if ((int(b.dst)-me+p)%p)&bit != 0 {
				fwd.blocks = append(fwd.blocks, b)
				nbytes += len(b.data)*eb + 16
			} else {
				keep = append(keep, b)
			}
		}
		clear(held.blocks[len(keep):])
		held.blocks = keep
		c.send((me+bit)%p, base+k, fwd, nbytes, byteScale)

		in := c.recv((me-bit+p)%p, base+k).payload.(*bruckBuf[T])
		for _, b := range in.blocks {
			if int(b.dst) == me {
				out[b.src] = b.data
			} else {
				held.blocks = append(held.blocks, b)
			}
		}
		put(in)
	}
	if len(held.blocks) != 0 {
		panic("comm: bruck exchange left undelivered blocks")
	}
	put(held)
	return out
}

// OneFactorRounds returns the number of matching rounds of the
// 1-factorization of K_p.
func OneFactorRounds(p int) int {
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
