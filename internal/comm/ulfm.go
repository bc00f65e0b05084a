package comm

import (
	"fmt"
)

// ULFM-style recovery primitives: Revoke / Agree / Shrink, the canonical
// recipe for continuing a computation on the survivors of a permanent rank
// failure.  A survivor that catches ErrRankDead (or ErrCommRevoked) through
// Try first revokes the communicator so every other survivor unwinds too,
// then agrees on the survivor bitmap, then shrinks to a densely re-ranked
// survivor communicator and redoes the lost work there.

// ulfmTagBase is the tag band of the recovery protocol, far above the
// protocol tag table so agreement messages can never collide with
// application or protocol traffic — essential, because Agree runs on a
// communicator whose ordinary tag space is polluted by aborted operations.
const ulfmTagBase = protocolTagBase + 1<<20

// Revoked reports whether this communicator has been revoked.
func (c *Comm) Revoked() bool { return c.w.commRevoked(c.id) }

// CheckRevoked raises ErrCommRevoked (through the typed-panic channel Try
// catches) if the communicator has been revoked.  One-sided layers call it
// at operation entry, since a put has no blocked receive to detect the
// revocation for them.  Free in fault-free worlds.
func (c *Comm) CheckRevoked() {
	if c.w.inj == nil {
		return
	}
	if c.w.commRevoked(c.id) {
		panic(&FailureError{err: ErrCommRevoked, Rank: -1, Comm: c.id,
			Detail: "one-sided operation on a revoked communicator"})
	}
}

// Revoke poisons the communicator (ULFM MPI_Comm_revoke): every subsequent
// one-sided operation on it raises ErrCommRevoked at entry (CheckRevoked),
// and Revoked() reports it.  Two-sided receives are deliberately NOT
// interrupted — the boundary-synchronous failure detector already unwinds
// every survivor at the same superstep boundary, and in-flight two-sided
// traffic drains deterministically because sends are eager and every rank
// finishes its boundary sends before unwinding (see failCheck).  Idempotent;
// every survivor calls it on entering recovery, and each call prices one
// injection overhead on the caller's clock regardless of who revoked first
// (so virtual time stays deterministic).
func (c *Comm) Revoke() {
	w := c.w
	w.fmu.Lock()
	already := w.revoked[c.id]
	w.revoked[c.id] = true
	w.fmu.Unlock()
	if !already {
		for _, b := range w.boxList() {
			b.wake()
		}
	}
	if m := w.model; m != nil {
		c.clock.Advance(m.SendOverhead)
	}
}

// Agree is the fault-tolerant agreement (ULFM MPI_Comm_agree specialised to
// the survivor bitmap): survivors OR their local views of the failed ranks
// in ceil(log2 S) dissemination rounds, tolerating the dead ranks by
// excluding them from the exchange graph.  It works on a revoked
// communicator.  suspect is the caller's local failure view by communicator
// rank (nil means registry-only); the boundary-synchronous detector derives
// it from the death schedule, so every survivor passes an identical view —
// the registry alone can lag behind a victim whose registration has not
// landed yet, and a lagging view would wedge the exchange graph.  The
// registered deaths are ORed in as well (they are always a subset of any
// schedule-derived view).  It returns alive[commRank] and the number of
// message rounds executed; every survivor returns the same bitmap.
func (c *Comm) Agree(suspect []bool) (alive []bool, executed int) {
	dead := make([]bool, len(c.group))
	c.w.fmu.Lock()
	for i, wr := range c.group {
		dead[i] = c.w.dead[wr]
	}
	c.w.fmu.Unlock()
	for i, s := range suspect {
		dead[i] = dead[i] || s
	}

	// Dense survivor indices from the local view; identical on every
	// survivor (see above), so the dissemination partners line up.
	var surv []int
	me := -1
	for r, d := range dead {
		if !d {
			if r == c.rank {
				me = len(surv)
			}
			surv = append(surv, r)
		}
	}
	if me < 0 {
		panic(&FailureError{err: ErrRankDead, Rank: c.WorldRank(), Comm: c.id,
			Detail: "Agree called by a rank registered dead"})
	}
	// Dissemination over the survivors, the Bruck rounds reversed: send to
	// me−2^k, receive from me+2^k.
	n := len(surv)
	for rd := range rounds(AlltoallBruck, n, me) {
		tag := ulfmTagBase + rd.tag
		c.send(surv[rd.from], tag, append([]bool(nil), dead...), n, 1)
		for i, d := range c.recv(surv[rd.to], tag).payload.([]bool) {
			dead[i] = dead[i] || d
		}
		executed++
	}
	alive = make([]bool, len(dead))
	for i, d := range dead {
		alive[i] = !d
	}
	return alive, executed
}

// Shrink builds the survivor communicator (ULFM MPI_Comm_shrink): the alive
// ranks of the agreed bitmap, densely re-ranked in their original order so
// the global sort order is preserved.  The new communicator has a fresh,
// deterministically derived identity — stale envelopes of the aborted epoch
// can never match it — and starts with clean transport state.  A barrier on
// the new communicator synchronizes the survivors' clocks, pricing the
// shrink against the cost model.
func (c *Comm) Shrink(alive []bool) *Comm {
	if len(alive) != len(c.group) {
		panic(fmt.Sprintf("comm: Shrink bitmap has %d entries for a communicator of size %d", len(alive), len(c.group)))
	}
	var group []int
	newRank := -1
	bits := uint64(0)
	for r, a := range alive {
		if !a {
			continue
		}
		if r == c.rank {
			newRank = len(group)
		}
		group = append(group, c.group[r])
		if r < 64 {
			bits |= 1 << uint(r)
		}
	}
	if newRank < 0 {
		panic(&FailureError{err: ErrRankDead, Rank: c.WorldRank(), Comm: c.id,
			Detail: "Shrink called by a rank outside the survivor bitmap"})
	}
	nc := &Comm{
		w:     c.w,
		id:    splitID(c.id, bits^uint64(len(c.group))<<56, len(group)),
		rank:  newRank,
		group: group,
		clock: c.clock,
		stats: c.stats,
	}
	Barrier(nc)
	return nc
}
