package comm

import "fmt"

// Grow / AwaitGrow: the mirror of Shrink.  Where Shrink densely re-ranks the
// survivors of a death, Grow folds freshly spawned ranks (World.Spawn) into
// a running communicator: existing members keep their order, joiners append
// after them, and every participant derives the same communicator identity
// without negotiation.  The join runs under the same typed-failure regime as
// the rest of the ULFM layer — a rank that dies while the join is in flight
// unwinds every participant with ErrRankDead/ErrCommRevoked through Try,
// never a deadlock, and the incumbents then recover on the OLD communicator
// via the ordinary Revoke/Agree/Shrink path.

// growTagBase opens the join protocol's tag band.  It sits above the ULFM
// agreement band (ulfmTagBase + round, round < 64), so a grow racing a
// recovery on the same communicator id can never cross wires.
const growTagBase = ulfmTagBase + 1<<12

// growTicketTag carries the sponsor's join ticket to each joiner, addressed
// on the joiner's world communicator (id 1).
const growTicketTag = growTagBase

// growTicket is the sponsor's invitation: everything a joiner needs to
// construct its handle on the grown communicator.
type growTicket struct {
	ID    uint64 // derived identity of the grown communicator
	Group []int  // communicator rank -> world rank, incumbents first
	Rank  int    // the joiner's rank within the grown communicator
}

// Grow is the collective the existing members call to admit joiners: it
// returns a deterministically derived communicator where the incumbents keep
// their ranks and the joiners (given by world rank, identical on every
// caller) append in order.  Rank 0 acts as sponsor, posting each joiner its
// ticket; then everyone — incumbents and joiners alike — synchronizes
// virtual clocks at a join barrier on the new communicator.  The old
// communicator remains valid: a failed grow leaves the incumbents free to
// Revoke/Agree/Shrink on it and carry on without the joiners.
func (c *Comm) Grow(joiners []int) *Comm {
	if len(joiners) == 0 {
		panic("comm: Grow with no joiners")
	}
	// Quiesce the old communicator first: once the barrier completes, every
	// member has entered Grow, so no straggler can still be receiving
	// pre-grow traffic when the join barrier's rounds start.  A member that
	// died earlier is detected here (failCheck) before any ticket is posted.
	Barrier(c)
	c.grows++
	newGroup := make([]int, 0, len(c.group)+len(joiners))
	newGroup = append(newGroup, c.group...)
	newGroup = append(newGroup, joiners...)
	// Epoch 1<<57|grows is disjoint from Split's small epochs and Shrink's
	// bits^size<<56 form, so a grown communicator can never collide with a
	// split or shrunk sibling of the same parent.
	id := splitID(c.id, 1<<57|c.grows, len(newGroup))
	nc := &Comm{
		w:     c.w,
		id:    id,
		rank:  c.rank,
		group: newGroup,
		clock: c.clock,
		stats: c.stats,
	}
	if c.rank == 0 {
		// The sponsor posts each ticket on the joiner's world communicator,
		// priced like a two-sided send of the ticket's words.
		for i, wr := range joiners {
			t := growTicket{ID: id, Group: append([]int(nil), newGroup...), Rank: len(c.group) + i}
			c.transmit(envelope{comm: 1, src: c.WorldRank(), tag: growTicketTag, payload: t}, wr, 8*(len(t.Group)+2), ticket)
		}
	}
	joinBarrier(nc)
	return nc
}

// AwaitGrow is the joiner's half of the collective: block for the sponsor's
// ticket (sponsor is a world rank; the specific source means a sponsor that
// died before inviting us raises ErrRankDead instead of hanging), build the
// grown communicator from it, and synchronize at the join barrier.  c must
// be the joiner's world communicator, i.e. the handle Spawn passed to fn.
func AwaitGrow(c *Comm, sponsor int) *Comm {
	e := c.recv(sponsor, growTicketTag)
	t, ok := e.payload.(growTicket)
	if !ok {
		panic(fmt.Sprintf("comm: AwaitGrow got a %T, want a join ticket", e.payload))
	}
	nc := &Comm{
		w:     c.w,
		id:    t.ID,
		rank:  t.Rank,
		group: t.Group,
		clock: c.clock,
		stats: c.stats,
	}
	joinBarrier(nc)
	return nc
}

// joinBarrier runs the dissemination barrier that completes a grow: the
// same rounds as Barrier, on fixed tags from the grow band (the joiners have
// no aligned sequence counters yet, so seq-derived tags are not available).
// Its receives are failure-AND-revocation sensitive — unlike ordinary
// receives, which ignore revocation for clock determinism, a join
// participant's clock is not yet part of any deterministic flow, so
// unwinding it early is safe and necessary: the first rank to detect a death
// revokes the half-built communicator, which wakes and unwinds every other
// participant, incumbent and joiner alike.
func joinBarrier(nc *Comm) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(*FailureError); ok {
				nc.Revoke()
			}
			panic(p)
		}
	}()
	for rd := range rounds(AlltoallBruck, len(nc.group), nc.rank) {
		tag := growTagBase + 1 + rd.tag
		nc.send(rd.to, tag, struct{}{}, 0, 1)
		nc.await(rd.from, tag, nc.failCheck(rd.from, tag, true))
	}
}

// adopt re-points this rank's persistent communicator handle at the derived
// communicator nc, resetting every piece of per-communicator transport
// state: collective sequence numbers, split/grow epochs and the reliable
// transport's per-flow sequence numbers all restart from zero, identically
// on every member — incumbents and joiners enter the next job with aligned
// counters.  clock and stats are already shared with nc (it was derived from
// this rank's lineage), so per-job accounting is unaffected.  The retired
// communicator's rendezvous is dropped: every member met there on the way
// into the collective that derived nc, and none meets there again.
func (c *Comm) adopt(nc *Comm) {
	c.w.mu.Lock()
	delete(c.w.rdv, rdvKey{c.id, len(c.group)})
	c.w.mu.Unlock()
	c.id = nc.id
	c.rank = nc.rank
	c.group = nc.group
	c.seq = 0
	c.splits = 0
	c.grows = 0
	c.sendSeq = nil
}
