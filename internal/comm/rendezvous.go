package comm

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"dhsort/internal/simnet"
)

// Rendezvous collectives.  Every rank of a World is a goroutine in one
// address space, so in a world that prices nothing on a cost model and
// injects no faults, ALLREDUCE, BARRIER and ALLTOALL — every schedule of it —
// meet in shared memory instead of exchanging messages — as MPI-3
// shared-memory windows let DASH run an intra-node collective as a copy and
// a flag.  Every rank enters its communicator's rendezvous, records what it
// contributes and parks; the last to arrive computes the collective once and
// wakes the others.  The exchange publishes views of the senders' blocks,
// which every receiver copies straight into its receive buffer, and meets a
// second time before returning, so no rank reads a caller's blocks after
// that caller is back.  Results are the message schedules' and each rank
// adds to its Stats exactly what its schedule would have sent.
//
// Memory order: a rank's writes before it enters a rendezvous collective
// happen before every rank's return from it (entries take the mutex, the
// last arrival takes it after all others, parked ranks resume on a channel
// receive from it) — the edge the mailbox mutex gave the dissemination
// barrier, which garray epochs and rma's put-then-Barrier rely on.

// rendezvous is the meeting point of one communicator: one per (world,
// communicator id, size), created on first use.  Each collective call on the
// communicator is one generation, an exchange two.
type rendezvous struct {
	id   uint64
	size int
	wake []chan struct{} // per rank; buffered, so release never waits for a rank to park
	// poisoned is set by World.abort: parked and arriving ranks unwind.
	poisoned atomic.Bool

	mu      sync.Mutex
	arrived int   // ranks that entered the current generation
	state   []any // shared state per element type (*reduceState[T], *exchangeState[T])
}

func newRendezvous(id uint64, size int) *rendezvous {
	rv := &rendezvous{id: id, size: size}
	rv.wake = make([]chan struct{}, size)
	for i := range rv.wake {
		rv.wake[i] = make(chan struct{}, 1)
	}
	return rv
}

// lock takes rv.mu for a rank entering a collective, unwinding with
// errAborted if the world has been aborted.
func (rv *rendezvous) lock() {
	rv.mu.Lock()
	if rv.poisoned.Load() {
		rv.mu.Unlock()
		panic(errAborted)
	}
}

// arrive counts rank into the generation and releases rv.mu.  It parks every
// rank but the last until that one calls release, and reports whether the
// caller is the last.
func (rv *rendezvous) arrive(rank int) bool {
	rv.arrived++
	last := rv.arrived == rv.size
	if last {
		rv.arrived = 0
	}
	rv.mu.Unlock()
	if !last {
		<-rv.wake[rank]
		if rv.poisoned.Load() {
			panic(errAborted)
		}
	}
	return last
}

// release wakes the parked ranks once the last arrival has published the
// collective's result.
func (rv *rendezvous) release(last int) {
	for r, ch := range rv.wake {
		if r != last {
			ch <- struct{}{}
		}
	}
}

// poison makes every parked and every later arrival unwind with errAborted.
func (rv *rendezvous) poison() {
	rv.mu.Lock()
	rv.poisoned.Store(true)
	rv.mu.Unlock()
	for _, ch := range rv.wake {
		select {
		case ch <- struct{}{}:
		default: // already woken: it finds the flag on its next arrival
		}
	}
}

// stateOf returns rv's shared state of type S, creating it on first use; the
// caller holds rv.mu.  A communicator uses a few types at most.
func stateOf[S any](rv *rendezvous) *S {
	for _, s := range rv.state {
		if v, ok := s.(*S); ok {
			return v
		}
	}
	v := new(S)
	rv.state = append(rv.state, v)
	return v
}

type rdvKey struct {
	id   uint64
	size int
}

// sharedMemory reports whether the world's collectives meet in shared
// memory, a property fixed at construction: a cost model must see every
// message to price it, and a fault plan to adjudicate it.
func (w *World) sharedMemory() bool { return w.inj == nil && w.model == nil }

// rendezvousOf returns communicator (id, size)'s rendezvous, creating it —
// poisoned, if the world has been aborted — on first use.
func (w *World) rendezvousOf(id uint64, size int) *rendezvous {
	w.mu.Lock()
	defer w.mu.Unlock()
	rv := w.rdv[rdvKey{id, size}]
	if rv == nil {
		rv = newRendezvous(id, size)
		rv.poisoned.Store(w.aborted)
		w.rdv[rdvKey{id, size}] = rv
	}
	return rv
}

// rendezvous returns c's rendezvous, cached on the Comm and checked against
// (id, size), so a Comm that adopt re-points never meets on its old one.
func (c *Comm) rendezvous() *rendezvous {
	if rv := c.rdv; rv == nil || rv.id != c.id || rv.size != len(c.group) {
		c.rdv = c.w.rendezvousOf(c.id, len(c.group))
	}
	return c.rdv
}

// tally adds n messages of the given priced size to the rank's Stats, as
// send records them on a real-time world.
func (c *Comm) tally(n, bytes int) {
	c.stats.Links[simnet.SelfLink].Add(LinkTally{Messages: int64(n), Bytes: int64(n) * int64(bytes)})
}

// barrierRendezvous is Barrier as a rendezvous: the arrival alone, tallied as
// the dissemination barrier's ceil(log2 P) empty messages.
func barrierRendezvous(c *Comm) {
	c.nextSeq()
	p := len(c.group)
	if p == 1 {
		return
	}
	rv := c.rendezvous()
	rv.lock()
	if rv.arrive(c.rank) {
		rv.release(c.rank)
	}
	c.tally(bits.Len(uint(p-1)), 0)
}

// reduceState is the shared state of the reductions over one element type.
type reduceState[T any] struct {
	vecs [][]T // the vector each rank entered with
	res  []T   // the generation's result
}

// allreduceRendezvous is AllreduceInPlace as a rendezvous.  The last arrival
// evaluates the schedule's tree once into res, which every rank copies out;
// the next reduction's last arrival, the only writer of res, comes after
// every copy.  Each rank tallies the sends of its role in the schedule.
func allreduceRendezvous[T any](c *Comm, data []T, op func(a, b T) T) []T {
	c.nextSeq()
	p := len(c.group)
	if p == 1 {
		return data
	}
	rv := c.rendezvous()
	rv.lock()
	st := stateOf[reduceState[T]](rv)
	if st.vecs == nil {
		st.vecs = make([][]T, p)
	}
	st.vecs[c.rank] = data
	if rv.arrive(c.rank) {
		st.res = append(st.res[:0], reduceTree(st.vecs, op)...)
		clear(st.vecs)
		rv.release(c.rank)
	}
	copy(data, st.res)

	rem := p - 1<<(bits.Len(uint(p))-1)
	sends := bits.Len(uint(p)) - 1 // recursive doubling
	switch {
	case c.rank < 2*rem && c.rank%2 == 0:
		sends = 1 // the fold's hand-off
	case c.rank < 2*rem:
		sends++ // the result back to the folded neighbour
	}
	c.tally(sends, len(data)*ElemBytes[T]())
	return data
}

// reduceTree reduces one vector per rank, in place, to what rank 0 of the
// message schedule computes: fold leaves op(odd, even) for the first 2·rem
// ranks, then recursive doubling, each level combining the lower half's
// partial first.  It returns the vector holding the result.
func reduceTree[T any](vecs [][]T, op func(a, b T) T) []T {
	pof2 := 1 << (bits.Len(uint(len(vecs))) - 1)
	rem := len(vecs) - pof2
	for i := 0; i < rem; i++ {
		combine(vecs[2*i+1], vecs[2*i], op)
	}
	leaf := func(n int) []T { // a rank of the power-of-two schedule
		if n < rem {
			return vecs[2*n+1]
		}
		return vecs[n+rem]
	}
	for mask := 1; mask < pof2; mask <<= 1 {
		for n := 0; n < pof2; n += 2 * mask {
			combine(leaf(n), leaf(n+mask), op)
		}
	}
	return leaf(0)
}

// exchangeState is the shared state of the exchanges over one element type:
// from[src] is the block table rank src entered with, blocks[dst] for rank
// dst — the caller's own slices, which nobody writes until every rank has
// met again.
type exchangeState[T any] struct {
	from [][][]T
}

// alltoallRendezvous is AlltoallWith's exchange as a rendezvous, for every
// schedule: each rank publishes its block table, every receiver copies its
// blocks from the senders' slices straight into recv (grown when shorter
// than what arrives), and the ranks meet once more before returning — the
// last arrival clears the table then, so it pins nothing — so a caller may
// overwrite its blocks at once.  Each rank tallies the messages its rounds
// send, each block at the length its origin entered with.
func alltoallRendezvous[T any](c *Comm, blocks [][]T, sched AlltoallAlgorithm, byteScale float64, recv []T) ([]T, [][]T) {
	c.nextSeq()
	p, me := len(c.group), c.rank
	rv := c.rendezvous()
	rv.lock()
	st := stateOf[exchangeState[T]](rv)
	if st.from == nil {
		st.from = make([][][]T, p)
	}
	st.from[me] = blocks
	if rv.arrive(me) {
		rv.release(me)
	}
	buf, out := land(recv, p, func(src int) []T { return st.from[src][me] })
	eb := ElemBytes[T]()
	for rd := range rounds(sched, p, me) {
		nbytes := 0
		for delta := rd.first(p, me, rd.to); delta < p; delta = rd.next(p, delta) {
			src := rd.origin(p, me, delta)
			nbytes += len(st.from[src][(src+delta)%p])*eb + rd.header()
		}
		c.tally(1, simnet.Scaled(nbytes, byteScale))
	}
	rv.lock()
	if rv.arrive(me) {
		clear(st.from)
		rv.release(me)
	}
	return buf, out
}

// land copies the blocks block(0), …, block(n-1) into consecutive segments
// of recv, grown to their total when its capacity is short, and returns the
// filled buffer with the blocks as views of it, each capped at its own
// length.
func land[T any](recv []T, n int, block func(src int) []T) ([]T, [][]T) {
	total := 0
	for src := range n {
		total += len(block(src))
	}
	buf := slices.Grow(recv[:0], total)[:total]
	out := make([][]T, n)
	off := 0
	for src := range out {
		k := copy(buf[off:], block(src))
		out[src] = buf[off : off+k : off+k]
		off += k
	}
	return buf, out
}
