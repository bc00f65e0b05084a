package comm

import (
	"fmt"
	"reflect"
)

// ElemBytes returns the in-memory size of one element of type T, used for
// communication-volume accounting (two-sided here, one-sided in internal/rma).
func ElemBytes[T any]() int {
	var z T
	return int(reflect.TypeOf(&z).Elem().Size())
}

// checkUserTag validates an application-supplied tag: non-negative and
// below the library-reserved space (see UserTagLimit).
func checkUserTag(tag int) {
	if tag < 0 {
		panic("comm: user tags must be non-negative")
	}
	if tag >= UserTagLimit {
		panic(fmt.Sprintf("comm: tag %d is in the library-reserved space [%d, ∞): "+
			"user tags must be below comm.UserTagLimit (the fused exchange and rma "+
			"notification protocols own the tags above it)", tag, UserTagLimit))
	}
}

// Send delivers a copy of data to dst under the given tag (tag in
// [0, UserTagLimit)).  Sends are eager: they buffer at the receiver and
// never block.
func Send[T any](c *Comm, dst, tag int, data []T) {
	SendScaled(c, dst, tag, data, 1)
}

// SendScaled is Send with the payload priced at byteScale times its real
// size in the network cost model — used when experiments execute on reduced
// data that stands in for a paper-scale volume (Config.VirtualScale).
func SendScaled[T any](c *Comm, dst, tag int, data []T, byteScale float64) {
	checkUserTag(tag)
	sendSlice(c, dst, tag, data, byteScale)
}

// Recv blocks for a message from src (or AnySource) under tag and returns
// its payload.  The returned slice is owned by the caller.
func Recv[T any](c *Comm, src, tag int) []T {
	checkUserTag(tag)
	return c.recv(src, tag).payload.([]T)
}

// SendOne delivers a single value to dst under tag.
func SendOne[T any](c *Comm, dst, tag int, v T) {
	checkUserTag(tag)
	c.send(dst, tag, v, ElemBytes[T](), 1)
}

// RecvOne blocks for a single value from src (or AnySource) under tag.
func RecvOne[T any](c *Comm, src, tag int) T {
	checkUserTag(tag)
	return c.recv(src, tag).payload.(T)
}

// sendSlice copies data (senders may reuse their buffers immediately, and
// tree collectives may deliver one buffer to several ranks) and ships it.
func sendSlice[T any](c *Comm, dst, tag int, data []T, byteScale float64) {
	cp := make([]T, len(data))
	copy(cp, data)
	c.send(dst, tag, cp, len(data)*ElemBytes[T](), byteScale)
}

// recvSlice receives a []T payload.
func recvSlice[T any](c *Comm, src, tag int) []T {
	return c.recv(src, tag).payload.([]T)
}

// freeList is one rank's free list of recycled payload buffers of type B: a
// reduction vector ([]T) or an exchange round's block list (roundBuf[T]).
// The receiver of such a payload consumes it and never looks at it again, so
// on the fault-free path it travels in a buffer the sender takes from its
// list and the receiver puts on its own afterwards: every rank of these
// collectives sends as many buffers as it receives, so the lists stay a few
// buffers deep and a warm collective allocates nothing for its payloads.  The
// buffers travel as *B so that boxing one into an envelope payload is a
// pointer store, not an allocation.
type freeList[B any] struct{ free []*B }

// freeListOf returns c's free list for buffer type B, creating it on first
// use.  A communicator ships a handful of buffer types at most, so the lists
// live in a short slice scanned by type assertion.
func freeListOf[B any](c *Comm) *freeList[B] {
	for _, l := range c.freeLists {
		if b, ok := l.(*freeList[B]); ok {
			return b
		}
	}
	b := &freeList[B]{}
	c.freeLists = append(c.freeLists, b)
	return b
}

// get returns a buffer, recycled (contents stale, capacity kept) when one is
// free.
func (r *freeList[B]) get() *B {
	if k := len(r.free); k > 0 {
		b := r.free[k-1]
		r.free = r.free[:k-1]
		return b
	}
	return new(B)
}

// put returns a received buffer to the list; nil (the payload was a copy)
// is a no-op.
func (r *freeList[B]) put(b *B) {
	if b != nil {
		r.free = append(r.free, b)
	}
}

// sendReduce ships one reduction vector.  When the injector adjudicates
// message faults it is sendSlice's private copy — an injected duplicate
// travels as a second envelope with the same payload, which a recycled
// buffer would alias after its first delivery; otherwise the vector is
// copied into a recycled buffer whose ownership passes to the receiver.
func sendReduce[T any](c *Comm, bufs *freeList[[]T], dst, tag int, data []T) {
	if c.w.inj.MessageFaults() {
		sendSlice(c, dst, tag, data, 1)
		return
	}
	b := bufs.get()
	*b = append((*b)[:0], data...)
	c.send(dst, tag, b, len(data)*ElemBytes[T](), 1)
}

// recvReduce receives one reduction vector.  buf is non-nil when the vector
// travelled in a recycled buffer: the caller hands it to put once it is
// done with the vector.
func recvReduce[T any](c *Comm, src, tag int) (vec []T, buf *[]T) {
	switch v := c.recv(src, tag).payload.(type) {
	case *[]T:
		return *v, v
	case []T:
		return v, nil
	default:
		panic(fmt.Sprintf("comm: reduction payload is a %T", v))
	}
}
