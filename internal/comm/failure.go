package comm

import (
	"errors"
	"fmt"
)

// ErrRankDead is the typed link-death error: a peer rank has permanently
// left the computation (fault.Death schedule), so an operation that needs
// it can never complete.  It replaces the former "link presumed dead"
// panic; the recovery layer (core.Config.Recovery == "shrink") consumes it
// through Try.
var ErrRankDead = errors.New("comm: rank dead")

// ErrCommRevoked marks an operation attempted on a revoked communicator:
// some rank observed a failure and called Revoke, poisoning all in-flight
// and future operations so every survivor unwinds to its recovery point
// (the ULFM MPI_Comm_revoke semantics).
var ErrCommRevoked = errors.New("comm: communicator revoked")

// FailureError is the typed panic raised deep inside blocked communication
// when a failure is detected.  It unwinds collectives and point-to-point
// operations alike and is caught by Try at the recovery boundary.
type FailureError struct {
	err    error  // ErrRankDead or ErrCommRevoked
	Rank   int    // world rank presumed dead (-1 when not rank-specific)
	Comm   uint64 // communicator the failure was observed on
	Step   int    // superstep boundary of a synchronously detected death (0 = async)
	Detail string
}

func (e *FailureError) Error() string {
	return fmt.Sprintf("comm: failure on communicator %d: %v (rank %d): %s", e.Comm, e.err, e.Rank, e.Detail)
}

// Unwrap exposes the sentinel so errors.Is(err, ErrRankDead) works.
func (e *FailureError) Unwrap() error { return e.err }

// Try runs fn and converts a FailureError panic into an ordinary error —
// the controlled boundary where the recovery layer catches rank death and
// communicator revocation.  Any other panic propagates unchanged.
func Try(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if fe, ok := p.(*FailureError); ok {
				err = fe
				return
			}
			panic(p)
		}
	}()
	fn()
	return nil
}

// DeadRankFailure builds the typed failure for a death detected
// synchronously at a superstep boundary: the checkpoint layer knows the
// death schedule, so every survivor raises an identical failure at an
// identical virtual time — the property the deterministic recovery (and the
// consistent Agree view) is built on.
func (c *Comm) DeadRankFailure(worldRank, step int, detail string) *FailureError {
	return &FailureError{err: ErrRankDead, Rank: worldRank, Comm: c.id, Step: step, Detail: detail}
}

// suicideExit is the panic value of a scheduled permanent death (Die): the
// rank leaves voluntarily and runRank classifies it as a clean exit, not a
// failure — no abort, no error, stats recorded.
type suicideExit struct{}

// Die permanently removes this rank from the computation: it registers the
// death in the world's failure registry (waking every blocked receiver so
// detection can proceed) and then unwinds the rank goroutine.  The caller
// must have finished every send it owes the survivors (checkpoint mirrors)
// first — Die never returns.
func (c *Comm) Die() {
	c.w.markDead(c.WorldRank())
	panic(suicideExit{})
}

// markDead registers a world rank as permanently dead and wakes all blocked
// receivers.  The flag is set before the broadcast (and the registry mutex
// is released before touching any mailbox), so a woken receiver that
// re-checks the registry always observes the death.
func (w *World) markDead(rank int) {
	w.fmu.Lock()
	w.dead[rank] = true
	w.fmu.Unlock()
	// The list snapshot is taken after the flag store: a box added by a
	// concurrent grow either precedes the store (fmu orders the swap, so the
	// snapshot covers it) or its rank enters its first receive afterwards
	// and observes the flag at wait-loop entry — no wake is lost.
	for _, b := range w.boxList() {
		b.wake()
	}
}

// RankDead reports whether a world rank has been registered dead.
func (w *World) RankDead(rank int) bool {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	return w.dead[rank]
}

// DeadRanks returns the world ranks registered dead, in ascending order.
func (w *World) DeadRanks() []int {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	var out []int
	for r, d := range w.dead {
		if d {
			out = append(out, r)
		}
	}
	return out
}

// commRevoked reports whether the communicator id has been revoked.
func (w *World) commRevoked(id uint64) bool {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	return w.revoked[id]
}

// failCheck builds the liveness predicate a blocked receive consults: it
// panics with a FailureError when the specific awaited sender is registered
// dead — that message can never come.  Revocation deliberately does NOT
// unwind a blocked receive: a survivor that is merely lagging (still inside
// a superstep boundary whose peers have already unwound) would otherwise be
// interrupted at a receive whose message is still in flight, making the
// unwind point — and with it every virtual clock — depend on real-time
// scheduling.  Two-sided traffic drains deterministically because sends are
// eager and every rank finishes its boundary sends before it unwinds or
// dies; revocation poisons one-sided operations at entry (CheckRevoked)
// instead.  The join barrier's receives (join) are the exception: they
// unwind on revocation too (see joinBarrier).  Fault-free worlds return nil,
// keeping the hot path untouched.
func (c *Comm) failCheck(src, tag int, join bool) func() {
	if c.w.inj == nil {
		return nil
	}
	return func() {
		w := c.w
		w.fmu.Lock()
		dead := src != AnySource && w.dead[c.group[src]]
		revoked := join && w.revoked[c.id]
		w.fmu.Unlock()
		if dead {
			panic(&FailureError{err: ErrRankDead, Rank: c.group[src], Comm: c.id,
				Detail: fmt.Sprintf("receive (src=%d, tag=%d) from a dead rank", src, tag)})
		}
		if revoked {
			panic(&FailureError{err: ErrCommRevoked, Rank: -1, Comm: c.id,
				Detail: "join barrier on a revoked communicator"})
		}
	}
}
