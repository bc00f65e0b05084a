package comm

import "fmt"

// Point-to-point helpers for library-internal protocols.

// SendrecvProtocol exchanges slices with a partner in one step: a copy of
// send goes to partner under tag and the partner's message under the same
// tag is returned, priced at byteScale times its real size.  Both sides must
// call it with matching tags; sends are eager, so it cannot deadlock.  tag
// must lie in the reserved space at or above UserTagLimit (the inverse of
// the user-tag check), so protocol traffic can never be intercepted by an
// application Recv.
func SendrecvProtocol[T any](c *Comm, partner, tag int, send []T, byteScale float64) []T {
	checkProtocolTag(tag)
	sendSlice(c, partner, tag, send, byteScale)
	return recvSlice[T](c, partner, tag)
}

// SendrecvRef is SendrecvProtocol for a payload that stands in for data
// the partner reads for itself — a reference into storage both sides share.
// ref travels in place of n elements of T and is tallied and priced as their
// n × size bytes, so Stats and every clock advance are exactly those of
// SendrecvProtocol sending the n elements: a host-side shortcut the virtual
// clock never sees.  The partner's ref is returned.
func SendrecvRef[T, R any](c *Comm, partner, tag int, ref R, n int, byteScale float64) R {
	checkProtocolTag(tag)
	c.send(partner, tag, ref, n*elemBytes[T](), byteScale)
	return c.recv(partner, tag).payload.(R)
}

// SendProtocol is the one-way half of SendrecvProtocol, for protocol
// exchanges whose send and receive partners differ (e.g. the checkpoint
// descriptor ring of the fault plane).  Priced like a normal send.
func SendProtocol[T any](c *Comm, dst, tag int, data []T, byteScale float64) {
	checkProtocolTag(tag)
	sendSlice(c, dst, tag, data, byteScale)
}

// RecvProtocol receives one SendProtocol message from src under a reserved
// protocol tag.
func RecvProtocol[T any](c *Comm, src, tag int) []T {
	checkProtocolTag(tag)
	return recvSlice[T](c, src, tag)
}

// checkProtocolTag is the inverse of checkUserTag: library-internal
// protocol traffic must stay in the reserved space so an application Recv
// can never intercept it.
func checkProtocolTag(tag int) {
	if tag < UserTagLimit {
		panic(fmt.Sprintf("comm: protocol tag %d is below the reserved space [%d, ∞)", tag, UserTagLimit))
	}
}
