package comm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dhsort/internal/simnet"
)

// ErrWorldBroken is returned by PersistentWorld.Execute when the world can
// no longer host jobs: a previous job failed (aborting poisons the
// mailboxes permanently) or a rank left permanently.  The caller must build
// a fresh world; pooled-world servers retire broken worlds on check-in.
var ErrWorldBroken = errors.New("comm: persistent world broken by an earlier job")

// ErrWorldClosed is returned by Execute after Close.
var ErrWorldClosed = errors.New("comm: persistent world closed")

// PersistentWorld hosts long-lived rank goroutines that execute a sequence
// of collective jobs on the same communicator.  Unlike World.Run — which is
// single-shot — the rank goroutines, their mailboxes, per-rank clocks,
// communicator sequence counters and reliable-transport state all survive
// across jobs, so a server can reuse a warm world instead of rebuilding
// goroutines and comm state per request (the world-pool substrate of the
// sort service).
//
// Per-job isolation is still guaranteed where it matters:
//
//   - Stats: each rank's accumulator is snapshotted into the world and
//     reset to zero by the rank goroutine itself at the end of every job
//     (after a quiesce barrier), so RankStats/TotalStats/Makespan report
//     the LAST job only and no communication volume leaks between jobs'
//     metrics documents.  See the ownership note on Stats.
//   - Clocks: reset to zero per job, so Makespan is per-job.
//   - Tags: collective sequence numbers and reliable-transport sequence
//     numbers keep counting monotonically across jobs, which is exactly
//     what keeps late/duplicate envelopes of job k from matching job k+1.
//
// A job that returns an error (or panics, or loses a rank permanently)
// breaks the world: the abort that unblocks the surviving ranks poisons the
// mailboxes for good, and every later Execute returns ErrWorldBroken.
// Fault-injecting plans that schedule permanent deaths therefore should run
// on dedicated single-shot worlds, not pooled ones.
type PersistentWorld struct {
	w    *World
	size int
	jobs []chan func(c *Comm) error
	// ranks maps a jobs index (== communicator rank) to its world rank.
	// Identity at construction; Grow appends fresh world ranks, Shrink
	// truncates the top, so the two stay aligned with the communicator's
	// order-preserving group mapping.
	ranks []int
	done  chan rankDone
	wg    sync.WaitGroup

	runMu sync.Mutex // serializes Execute/Grow/Shrink; jobs are sequential

	mu       sync.Mutex
	broken   bool
	closed   bool
	jobsRun  int
	baseSize int // size at construction
	joined   int // ranks admitted by Grow over the world's lifetime
	removed  int // ranks retired by Shrink over the world's lifetime
}

// rankDone is one rank's verdict on one job.
type rankDone struct {
	err   error
	dead  bool // the world cannot run further jobs (abort or permanent death)
	leave bool // the rank retired cleanly under Shrink; its loop exits
}

// errLeaveWorld is the sentinel a retiring rank returns under Shrink: a
// clean, coordinated exit, not a failure — runJob skips the quiesce barrier
// (the survivors run it on a communicator the victim is no longer part of)
// and rankLoop terminates.
var errLeaveWorld = errors.New("comm: rank leaves the world")

// NewPersistentWorld creates a persistent world of the given size.  model
// may be nil for real-time execution.  The rank goroutines start immediately
// and idle until Execute.
func NewPersistentWorld(size int, model *simnet.CostModel) (*PersistentWorld, error) {
	w, err := NewWorld(size, model)
	if err != nil {
		return nil, err
	}
	pw := &PersistentWorld{
		w:        w,
		size:     size,
		baseSize: size,
		jobs:     make([]chan func(c *Comm) error, size),
		ranks:    make([]int, size),
		done:     make(chan rankDone, size),
	}
	for r := 0; r < size; r++ {
		pw.ranks[r] = r
		pw.jobs[r] = make(chan func(c *Comm) error, 1)
		pw.wg.Add(1)
		go pw.rankLoop(pw.jobs[r], r, size)
	}
	return pw, nil
}

// rankLoop is one rank's lifetime: a fresh Comm over the first size world
// ranks, then one job after another until Close (or a clean leave under
// Shrink).  The Comm survives across jobs by design; Grow re-points it at
// the grown communicator in place (adopt).  The jobs channel is passed in
// rather than indexed from pw.jobs, which Grow appends to concurrently.
func (pw *PersistentWorld) rankLoop(jobs chan func(c *Comm) error, rank, size int) {
	defer pw.wg.Done()
	c := newWorldComm(pw.w, rank, size)
	for fn := range jobs {
		d := pw.runJob(c, rank, fn)
		pw.done <- d
		if d.leave {
			return
		}
	}
}

// runJob executes one job on the rank's persistent Comm, then quiesces,
// records and resets the rank's per-job state.  runRank classifies the
// job's end as it does for World.Run; every end but a clean return or a
// Shrink retirement leaves the world unusable, and a failure of this rank
// aborts it.
func (pw *PersistentWorld) runJob(c *Comm, rank int, fn func(c *Comm) error) rankDone {
	var at time.Duration
	end, err := runRank(c, func(c *Comm) error {
		if err := fn(c); err != nil {
			return err
		}
		// The job's own completion time, before the quiesce barrier adds
		// synchronization slack.
		at = c.clock.Now()
		// Quiesce: no rank starts the next job (reusing the fused-exchange
		// user tag range and resetting stats) while a peer is still
		// receiving this job's traffic.  Collective discipline makes this
		// safe: every rank that reached this point runs the same barrier.
		Barrier(c)
		return nil
	})
	switch {
	case end == rankReturned:
		// Record, then reset on the owning goroutine so the next job starts
		// from zero (see the Stats ownership note).
		pw.w.record(rank, at, c.stats)
		*c.stats = Stats{}
		c.clock.Reset()
		return rankDone{}
	case errors.Is(err, errLeaveWorld):
		// A clean, coordinated retirement (Shrink): it skipped the quiesce
		// barrier — the survivors run theirs on a communicator this rank is
		// no longer part of — and the loop exits.
		return rankDone{leave: true}
	case end == rankDied:
		pw.w.record(rank, c.clock.Now(), c.stats)
	case err != nil:
		err = fmt.Errorf("comm: rank %d: %w", rank, err)
		pw.w.abort()
	}
	return rankDone{err: err, dead: true}
}

// usable reports why the world can take no further job, or nil.
func (pw *PersistentWorld) usable() error {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if pw.closed {
		return ErrWorldClosed
	}
	if pw.broken {
		return ErrWorldBroken
	}
	return nil
}

// collect gathers n ranks' verdicts on the job just sent, counts the job,
// and breaks the world if any rank left it unusable.  It reports whether the
// world survived the job, and joins the ranks' errors.
func (pw *PersistentWorld) collect(n int) (intact bool, err error) {
	errs := make([]error, 0, n)
	dead := false
	for i := 0; i < n; i++ {
		d := <-pw.done
		if d.err != nil {
			errs = append(errs, d.err)
		}
		dead = dead || d.dead
	}
	pw.mu.Lock()
	pw.jobsRun++
	pw.broken = pw.broken || dead
	pw.mu.Unlock()
	return !dead, errors.Join(errs...)
}

// Execute runs fn once per rank — the reusable counterpart of World.Run —
// and waits for every rank.  Jobs are serialized: concurrent Execute calls
// queue on an internal mutex.  After a clean job, Makespan/RankStats/
// TotalStats report that job alone.  A failed job breaks the world; further
// calls return ErrWorldBroken.
func (pw *PersistentWorld) Execute(fn func(c *Comm) error) error {
	pw.runMu.Lock()
	defer pw.runMu.Unlock()
	if err := pw.usable(); err != nil {
		return err
	}
	for r := 0; r < pw.size; r++ {
		pw.jobs[r] <- fn
	}
	_, err := pw.collect(pw.size)
	return err
}

// Grow admits k fresh ranks into the warm world between jobs: the world
// grows (mailboxes registered, registry widened), k new rank loops start,
// and a join job runs as one collective — incumbents call the Grow
// collective with rank 0 sponsoring, joiners AwaitGrow — after which every
// rank's persistent communicator is re-pointed (adopt) at the grown one.
// Warm per-rank state (clocks, mailboxes, goroutines) survives; the next
// Execute runs on size+k ranks.  Serialized with Execute; a failed join
// breaks the world like any failed job.
func (pw *PersistentWorld) Grow(k int) error {
	if k <= 0 {
		return fmt.Errorf("comm: Grow count must be positive, got %d", k)
	}
	pw.runMu.Lock()
	defer pw.runMu.Unlock()
	if err := pw.usable(); err != nil {
		return err
	}
	newRanks := pw.w.grow(k)
	size := newRanks[k-1] + 1
	sponsor := pw.ranks[0]
	growFn := func(c *Comm) error {
		c.adopt(c.Grow(newRanks))
		return nil
	}
	joinFn := func(c *Comm) error {
		c.adopt(AwaitGrow(c, sponsor))
		return nil
	}
	old := len(pw.jobs)
	for _, r := range newRanks {
		ch := make(chan func(c *Comm) error, 1)
		pw.jobs = append(pw.jobs, ch)
		pw.ranks = append(pw.ranks, r)
		pw.wg.Add(1)
		go pw.rankLoop(ch, r, size)
		ch <- joinFn
	}
	for i := 0; i < old; i++ {
		pw.jobs[i] <- growFn
	}
	intact, err := pw.collect(old + k)
	if intact {
		pw.mu.Lock()
		pw.size += k
		pw.joined += k
		pw.mu.Unlock()
	}
	return err
}

// Shrink retires the top k ranks gracefully between jobs, reusing the ULFM
// path: one collective job quiesces the world, the victims leave cleanly
// (their loops exit), and the survivors Revoke the old communicator, Agree
// on the structural suspect set, Shrink to the densely re-ranked survivor
// communicator and adopt it.  The next Execute runs on size-k ranks; rank
// order — and with it any warm partition order — is preserved.
func (pw *PersistentWorld) Shrink(k int) error {
	pw.runMu.Lock()
	defer pw.runMu.Unlock()
	if err := pw.usable(); err != nil {
		return err
	}
	size := pw.size // only the holder of runMu changes it
	if k <= 0 || k >= size {
		return fmt.Errorf("comm: Shrink by %d ranks on a world of %d", k, size)
	}

	keep := size - k
	shrinkFn := func(c *Comm) error {
		// Quiesce: every rank enters the retirement collective together, so
		// no victim leaves while a peer still owes it traffic.
		Barrier(c)
		if c.rank >= keep {
			return errLeaveWorld
		}
		c.Revoke()
		suspect := make([]bool, len(c.group))
		for r := keep; r < len(c.group); r++ {
			suspect[r] = true
		}
		alive, _ := c.Agree(suspect)
		c.adopt(c.Shrink(alive))
		return nil
	}
	for i := 0; i < size; i++ {
		pw.jobs[i] <- shrinkFn
	}
	intact, err := pw.collect(size)
	if !intact {
		return err
	}
	victims := pw.ranks[keep:]
	pw.mu.Lock()
	pw.size = keep
	pw.removed += k
	pw.jobs = pw.jobs[:keep]
	pw.ranks = pw.ranks[:keep]
	pw.mu.Unlock()
	// Register the retirements and clear the victims' last-job accounting so
	// Makespan/TotalStats of subsequent jobs never read their stale rows.
	for _, wr := range victims {
		pw.w.markDead(wr)
		pw.w.record(wr, 0, &Stats{})
	}
	return err
}

// Joined returns the number of ranks admitted by Grow over the world's
// lifetime (the service's per-job elasticity marker).
func (pw *PersistentWorld) Joined() int {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return pw.joined
}

// Removed returns the number of ranks retired by Shrink over the world's
// lifetime.
func (pw *PersistentWorld) Removed() int {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return pw.removed
}

// BaseSize returns the world's size at construction.
func (pw *PersistentWorld) BaseSize() int {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return pw.baseSize
}

// Healthy reports whether the world can run further jobs.
func (pw *PersistentWorld) Healthy() bool {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return !pw.broken && !pw.closed
}

// JobsRun returns the number of Execute calls that completed (including
// failed ones).
func (pw *PersistentWorld) JobsRun() int {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return pw.jobsRun
}

// Size returns the current number of ranks (Grow and Shrink change it).
func (pw *PersistentWorld) Size() int {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return pw.size
}

// Model returns the world's cost model (nil in real-time mode).
func (pw *PersistentWorld) Model() *simnet.CostModel { return pw.w.model }

// Makespan returns the LAST job's maximum per-rank completion time (virtual
// under a cost model, wall otherwise).
func (pw *PersistentWorld) Makespan() time.Duration { return pw.w.Makespan() }

// RankStats returns the LAST job's per-rank communication statistics.
func (pw *PersistentWorld) RankStats() []Stats { return pw.w.RankStats() }

// TotalStats sums the LAST job's per-rank communication statistics.
func (pw *PersistentWorld) TotalStats() Stats { return pw.w.TotalStats() }

// Close shuts the rank goroutines down and waits for them.  Must not be
// called concurrently with Execute.  Idempotent.
func (pw *PersistentWorld) Close() {
	pw.runMu.Lock()
	defer pw.runMu.Unlock()
	pw.mu.Lock()
	if pw.closed {
		pw.mu.Unlock()
		return
	}
	pw.closed = true
	pw.mu.Unlock()
	for _, ch := range pw.jobs {
		close(ch)
	}
	pw.wg.Wait()
}
