package comm

import (
	"fmt"
	"math/bits"
)

// The collectives below are the operations the paper's algorithms are made
// of, implemented with the standard algorithms of production MPI libraries:
// binomial trees (Bcast, Gather, Scatter), recursive doubling with
// a non-power-of-two fold (Allreduce), gather+broadcast (Allgather), a
// dissemination barrier, and the exchange schedules of alltoall.go.
// None of them assumes a power-of-two communicator — the paper stresses
// that its algorithm is free of such constraints (§VI-B).
//
// All of them are collective: every rank of the communicator must call them
// in the same order with consistent arguments.

// Barrier blocks until every rank of c has entered it (dissemination
// algorithm, ceil(log2 P) rounds; a rendezvous in fault-free real-time
// worlds, see rendezvous.go).
func Barrier(c *Comm) {
	if c.w.sharedMemory() {
		barrierRendezvous(c)
		return
	}
	barrierMessages(c)
}

// barrierMessages is the dissemination barrier: round k signals me+2^k and
// waits for me−2^k, the rounds of the Bruck schedule.
func barrierMessages(c *Comm) {
	base := c.nextSeq()
	for rd := range rounds(AlltoallBruck, c.Size(), c.rank) {
		c.send(rd.to, base+rd.tag, struct{}{}, 0, 1)
		c.recv(rd.from, base+rd.tag)
	}
}

// Bcast distributes root's data to every rank over a binomial tree and
// returns it.  Non-root ranks should pass nil.
func Bcast[T any](c *Comm, root int, data []T) []T {
	base := c.nextSeq()
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("comm: Bcast root %d out of range", root))
	}
	downTree(c, root,
		func(src int) { data = recvSlice[T](c, src, base) },
		func(dst, _ int) { sendSlice(c, dst, base, data, 1) })
	return data
}

// downTree walks rank c's part of the binomial tree rooted at root from the
// top, as broadcast and scatter run it: every rank but the root receives
// once from its parent (recv), then each sends to its children, the
// farthest first (send); child dst roots the subtree of relative ranks
// [rel+mask, rel+2·mask), rel being c's own.
func downTree(c *Comm, root int, recv func(src int), send func(dst, mask int)) {
	p := c.Size()
	rel := (c.rank - root + p) % p
	mask := 1
	for ; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			recv((c.rank - mask + p) % p)
			break
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < p {
			send((c.rank+mask)%p, mask)
		}
	}
}

// BcastOne distributes a single value from root to every rank.
func BcastOne[T any](c *Comm, root int, v T) T {
	out := Bcast(c, root, []T{v})
	return out[0]
}

// combine folds other into acc elementwise.
func combine[T any](acc, other []T, op func(a, b T) T) {
	if len(acc) != len(other) {
		panic(fmt.Sprintf("comm: reduction length mismatch: %d vs %d", len(acc), len(other)))
	}
	for i := range acc {
		acc[i] = op(acc[i], other[i])
	}
}

// Allreduce combines all ranks' data vectors elementwise with op (which
// must be associative and commutative) and returns the result on every
// rank.  Recursive doubling with the standard fold for non-power-of-two
// communicators: ceil(log2 P)+2 rounds.
func Allreduce[T any](c *Comm, data []T, op func(a, b T) T) []T {
	acc := make([]T, len(data))
	copy(acc, data)
	return AllreduceInPlace(c, acc, op)
}

// AllreduceInPlace is Allreduce accumulating into data itself: on return,
// data holds the global reduction (and is also returned for convenience).
// The schedule, message counts and priced bytes are identical to Allreduce;
// only the caller-side result allocation is gone — the variant hot loops
// (splitter refinement's per-round histograms, whose payload shrinks with
// the active set) call with a buffer reused round after round.  Outgoing
// payloads are copied (sendReduce), so mutating data between rounds is safe.
//
// In fault-free real-time worlds the reduction is a rendezvous
// (allreduceRendezvous): the tree of the schedule is evaluated once and
// every rank gets the schedule's rank-0 result.  That is what the message
// schedule delivers on every rank for any op that is commutative bit for bit
// — a rank combines its partner's partial with its own on the left, so only
// the operand order of a combine differs between ranks — which every op in
// this repository is: integer sums, min/max, float sums (IEEE addition
// commutes exactly), conjunction.
func AllreduceInPlace[T any](c *Comm, data []T, op func(a, b T) T) []T {
	if c.w.sharedMemory() {
		return allreduceRendezvous(c, data, op)
	}
	return allreduceMessages(c, data, op)
}

// allreduceMessages is AllreduceInPlace's message schedule.
func allreduceMessages[T any](c *Comm, data []T, op func(a, b T) T) []T {
	base := c.nextSeq()
	p := c.Size()
	if p == 1 {
		return data
	}
	pof2 := 1 << (bits.Len(uint(p)) - 1)
	rem := p - pof2
	logp := bits.Len(uint(pof2)) - 1
	bufs := freeListOf[[]T](c)
	newRank := -1
	switch {
	case c.rank < 2*rem && c.rank%2 == 0:
		// Fold: hand the vector to the odd neighbour and wait for the result.
		sendReduce(c, bufs, c.rank+1, base, data)
		other, buf := recvReduce[T](c, c.rank+1, base+1+logp)
		copy(data, other)
		bufs.put(buf)
		return data
	case c.rank < 2*rem:
		other, buf := recvReduce[T](c, c.rank-1, base)
		combine(data, other, op)
		bufs.put(buf)
		newRank = c.rank / 2
	default:
		newRank = c.rank - rem
	}
	round := 1
	for mask := 1; mask < pof2; mask <<= 1 {
		partnerNew := newRank ^ mask
		partner := partnerNew + rem
		if partnerNew < rem {
			partner = partnerNew*2 + 1
		}
		sendReduce(c, bufs, partner, base+round, data)
		other, buf := recvReduce[T](c, partner, base+round)
		combine(data, other, op)
		bufs.put(buf)
		round++
	}
	if c.rank < 2*rem {
		sendReduce(c, bufs, c.rank-1, base+round, data)
	}
	return data
}

// AllreduceOne combines a single value across all ranks.
func AllreduceOne[T any](c *Comm, v T, op func(a, b T) T) T {
	return Allreduce(c, []T{v}, op)[0]
}

// rankBlock tags a data block with its originating rank while it travels
// through gather/allgather trees.
type rankBlock[T any] struct {
	Rank int
	Data []T
}

func blocksBytes[T any](blocks []rankBlock[T]) int {
	n := 0
	for _, b := range blocks {
		n += len(b.Data)*ElemBytes[T]() + 16
	}
	return n
}

// Gather collects every rank's data at root (binomial tree).  At root the
// result is indexed by rank; other ranks get nil.  Blocks may have
// different lengths (MPI_Gatherv).
func Gather[T any](c *Comm, root int, mine []T) [][]T {
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("comm: Gather root %d out of range", root))
	}
	blocks := gatherBlocks(c, root, mine)
	if blocks == nil {
		return nil
	}
	return byRank(c.Size(), blocks)
}

// gatherBlocks collects a copy of every rank's data at root over a binomial
// tree, each rank's subtree in one message, and returns the blocks at root
// and nil elsewhere.
func gatherBlocks[T any](c *Comm, root int, mine []T) []rankBlock[T] {
	base := c.nextSeq()
	p := c.Size()
	own := make([]T, len(mine))
	copy(own, mine)
	blocks := []rankBlock[T]{{Rank: c.rank, Data: own}}
	rel := (c.rank - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			c.send((c.rank-mask+p)%p, base, blocks, blocksBytes(blocks), 1)
			return nil
		}
		if rel|mask < p {
			blocks = append(blocks, c.recv((c.rank+mask)%p, base).payload.([]rankBlock[T])...)
		}
	}
	return blocks
}

// bcastBlocks broadcasts a block list from root (binomial tree), preserving
// per-block byte accounting.
func bcastBlocks[T any](c *Comm, root int, blocks []rankBlock[T]) []rankBlock[T] {
	base := c.nextSeq()
	downTree(c, root,
		func(src int) { blocks = c.recv(src, base).payload.([]rankBlock[T]) },
		func(dst, _ int) { c.send(dst, base, blocks, blocksBytes(blocks), 1) })
	return blocks
}

// byRank returns the data of the blocks indexed by rank.
func byRank[T any](p int, blocks []rankBlock[T]) [][]T {
	out := make([][]T, p)
	for _, b := range blocks {
		out[b.Rank] = b.Data
	}
	return out
}

// Allgather collects every rank's data on every rank, indexed by rank
// (gather to rank 0 + broadcast: O(log P) rounds).  Blocks may have
// different lengths (MPI_Allgatherv).
func Allgather[T any](c *Comm, mine []T) [][]T {
	return byRank(c.Size(), bcastBlocks(c, 0, gatherBlocks(c, 0, mine)))
}

// AllgatherOne collects one value per rank on every rank, indexed by rank.
func AllgatherOne[T any](c *Comm, v T) []T {
	all := Allgather(c, []T{v})
	out := make([]T, len(all))
	for i, b := range all {
		out[i] = b[0]
	}
	return out
}

// Scatter distributes root's per-rank blocks over a binomial tree and
// returns this rank's block.  Non-root ranks pass nil.  Blocks may have
// different lengths (MPI_Scatterv).
func Scatter[T any](c *Comm, root int, all [][]T) []T {
	base := c.nextSeq()
	p := c.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("comm: Scatter root %d out of range", root))
	}
	rel := (c.rank - root + p) % p
	var blocks []rankBlock[T]
	if c.rank == root {
		if len(all) != p {
			panic(fmt.Sprintf("comm: Scatter needs %d blocks, got %d", p, len(all)))
		}
		blocks = make([]rankBlock[T], p)
		for i, b := range all {
			own := make([]T, len(b))
			copy(own, b)
			blocks[i] = rankBlock[T]{Rank: i, Data: own}
		}
	}
	downTree(c, root,
		func(src int) { blocks = c.recv(src, base).payload.([]rankBlock[T]) },
		func(dst, mask int) {
			// The child's subtree is relative ranks [rel+mask, rel+2*mask).
			var mineBlocks, childBlocks []rankBlock[T]
			for _, b := range blocks {
				if (b.Rank-root+p)%p >= rel+mask {
					childBlocks = append(childBlocks, b)
				} else {
					mineBlocks = append(mineBlocks, b)
				}
			}
			c.send(dst, base, childBlocks, blocksBytes(childBlocks), 1)
			blocks = mineBlocks
		})
	for _, b := range blocks {
		if b.Rank == c.rank {
			return b.Data
		}
	}
	return nil
}
