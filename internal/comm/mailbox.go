package comm

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// AnySource matches a message from any sender in Recv operations
// (MPI_ANY_SOURCE).
const AnySource = -1

// UserTagLimit bounds the application tag space: user point-to-point tags
// must lie in [0, UserTagLimit).  Tags at or above the limit are reserved
// for library-internal protocols — core's 1-factor sendrecv rounds (the
// overlap merge and the spilled exchange) use [UserTagLimit,
// UserTagLimit+P), the fault plane and the rma-put exchange's windows the
// fixed protocol tag table (FaultControlTag, RMACountsTag, RMADataTag) — so
// a colliding user tag would silently corrupt those protocols.  The
// Send/Recv family panics on reserved tags instead.
// (Collectives use a disjoint negative tag space and cannot collide.)
const UserTagLimit = 1 << 30

// envelope is one in-flight message.
type envelope struct {
	comm    uint64        // communicator identity
	src     int           // sender's rank within that communicator
	tag     int           // matching tag
	arrival time.Duration // virtual arrival time (0 in real-time mode)
	payload any

	// Reliable-transport fields, used only under fault injection.  seq 0
	// marks an unsequenced envelope (the fault-free fast path and raw
	// protocol posts); sequenced flows number from 1 per (comm, src, tag).
	seq   uint64
	front bool // injected reorder: jump ahead of the queued envelopes
}

// flowKey identifies one sequenced message flow at a receiver.
type flowKey struct {
	comm uint64
	src  int
	tag  int
}

// mailbox is one rank's unbounded receive queue with MPI-style
// (communicator, source, tag) matching.  Sends are eager (never block);
// receives block until a matching envelope arrives.  Messages from the same
// sender with the same tag are matched in FIFO order.  A delivered envelope
// leaves nothing behind in the queue's backing array (slices.Delete zeroes
// the vacated slot), so a parked mailbox pins no payload.
//
// Under fault injection, envelopes carry per-flow sequence numbers and the
// mailbox becomes the resequencing/dedup stage of the reliable transport: a
// receive for a sequenced flow delivers exactly the next expected sequence
// number, discards duplicates (seq already delivered), and holds back
// envelopes that arrived ahead of order until their turn.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []envelope
	aborted bool

	// expected is the next undelivered sequence number per sequenced flow
	// (missing = 1); allocated lazily so fault-free worlds never touch it.
	expected map[flowKey]uint64

	// watchdog, when positive, bounds the wall-clock time a get may block
	// before declaring the world wedged (fault.Plan.Watchdog).
	watchdog time.Duration
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(e envelope) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.aborted {
		return
	}
	m.insert(e)
	m.cond.Broadcast()
}

// putPair enqueues a message and its injected duplicate atomically, so no
// receiver can observe the original without its copy.  This keeps the
// receiver-side dedup counter deterministic: the delivery sweep (see get)
// always finds the duplicate, regardless of goroutine timing.
func (m *mailbox) putPair(e, d envelope) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.aborted {
		return
	}
	m.insert(e)
	m.insert(d)
	m.cond.Broadcast()
}

// insert places an envelope; callers hold mu.
func (m *mailbox) insert(e envelope) {
	if e.front {
		m.queue = append([]envelope{e}, m.queue...)
	} else {
		m.queue = append(m.queue, e)
	}
}

// get blocks until an envelope matching (comm, src, tag) is deliverable and
// removes it, returning it together with the number of duplicate envelopes
// of the same flow it discarded along the way.  src may be AnySource.  It
// panics with errAborted if the world is torn down while waiting, and with
// a watchdog error if the receive exceeds the configured wall-clock bound.
// check, when non-nil, is consulted whenever no envelope is deliverable: it
// panics with a FailureError if the awaited sender is dead or the
// communicator revoked (the ULFM detection path), which unwinds through the
// deferred unlock.
func (m *mailbox) get(comm uint64, src, tag int, check func()) (envelope, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dups := 0
	var deadline time.Time
	if m.watchdog > 0 {
		deadline = time.Now().Add(m.watchdog)
	}
	for {
		if m.aborted {
			panic(errAborted)
		}
		i := 0
		for i < len(m.queue) {
			e := m.queue[i]
			if e.comm != comm || e.tag != tag || (src != AnySource && e.src != src) {
				i++
				continue
			}
			if e.seq == 0 {
				m.queue = slices.Delete(m.queue, i, i+1)
				return e, dups
			}
			fk := flowKey{e.comm, e.src, e.tag}
			next := m.expected[fk]
			if next == 0 {
				next = 1
			}
			switch {
			case e.seq < next:
				// Duplicate of an already-delivered message: discard and
				// keep scanning from the same position.
				m.queue = slices.Delete(m.queue, i, i+1)
				dups++
			case e.seq == next:
				if m.expected == nil {
					m.expected = make(map[flowKey]uint64)
				}
				m.expected[fk] = next + 1
				m.queue = slices.Delete(m.queue, i, i+1)
				// Delivery sweep: discard the flow's stale duplicates in the
				// rest of the queue right now.  Envelopes before i were
				// already adjudicated by this scan, and putPair guarantees a
				// duplicate is queued with its original, so the sweep (not
				// some later receive that may never come) accounts every
				// injected duplicate — deterministically.
				for j := i; j < len(m.queue); {
					q := m.queue[j]
					if q.seq != 0 && q.seq <= next && (flowKey{q.comm, q.src, q.tag}) == fk {
						m.queue = slices.Delete(m.queue, j, j+1)
						dups++
						continue
					}
					j++
				}
				return e, dups
			default:
				// Arrived ahead of order (injected reorder); hold until
				// its predecessors are delivered.
				i++
			}
		}
		if check != nil {
			check()
		}
		if m.watchdog <= 0 {
			m.cond.Wait()
			continue
		}
		// Watchdog: cond.Wait has no deadline, so a timer re-checks the
		// clock periodically.  The watchdog is a wall-clock liveness bound
		// for detecting a wedged world, not a virtual-time construct.
		t := time.AfterFunc(m.watchdog/4+time.Millisecond, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		m.cond.Wait()
		t.Stop()
		if time.Now().After(deadline) {
			panic(fmt.Errorf("comm: receive watchdog fired after %v waiting for (comm=%d, src=%d, tag=%d): sender presumed dead", m.watchdog, comm, src, tag))
		}
	}
}

func (m *mailbox) abort() {
	m.mu.Lock()
	m.aborted = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// wake re-checks all blocked receivers (used when the failure registry
// changes: a rank died or a communicator was revoked).
func (m *mailbox) wake() {
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
}
