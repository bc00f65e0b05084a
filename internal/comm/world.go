// Package comm is the message-passing substrate the distributed sorting
// algorithms run on — the MPI-3 substitute of this reproduction.
//
// A World hosts P ranks, each executing the same function in its own
// goroutine.  Ranks exchange tag-matched point-to-point messages through
// per-rank mailboxes, and the package builds the collective operations the
// paper uses (BCAST, REDUCE, ALLREDUCE, ALLGATHER, GATHER, SCATTER,
// ALLTOALL, ALLTOALLV, EXSCAN, BARRIER) from the same algorithms production
// MPI libraries use: binomial trees, recursive doubling, and pairwise /
// 1-factor exchanges.  Communicators can be split (MPI_Comm_split), which is
// how the HykSort baseline pays the split cost the paper criticizes.
//
// When the World carries a simnet.CostModel, every rank owns a virtual
// clock: message arrivals and modelled compute advance it, making
// 3584-rank scaling experiments reproducible on a single machine.  With a
// nil model the clocks read wall time and the runtime behaves like a plain
// concurrent execution — and, unless a fault plan is injected, ALLREDUCE,
// BARRIER and the store-and-forward ALLTOALL meet in shared memory instead
// of exchanging messages (rendezvous.go), with the same results and the
// same message and byte counts.
package comm

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dhsort/internal/fault"
	"dhsort/internal/simnet"
)

// World hosts a set of ranks and their mailboxes.  The set can grow at
// runtime: Spawn brings fresh rank goroutines into a running world (see
// grow.go for the join protocol that folds them into a communicator).
type World struct {
	model    *simnet.CostModel
	inj      *fault.Injector // nil in fault-free worlds
	watchdog time.Duration   // receive watchdog inherited by spawned ranks

	// boxes is the per-world-rank mailbox list.  Senders index it lock-free
	// on the hot path, and grow publishes an extended copy atomically, so
	// the pointer is the only synchronization a send needs.  Mutations
	// happen under BOTH mu and fmu (mu orders grow against abort, fmu
	// orders it against the failure registry's wake broadcasts).
	boxes atomic.Pointer[[]*mailbox]

	mu      sync.Mutex
	size    int                    // current number of world ranks
	aborted bool                   // a failed rank poisoned the mailboxes
	finals  []time.Duration        // per-rank clock at fn return
	stats   []Stats                // per-rank aggregated communication stats
	rdv     map[rdvKey]*rendezvous // communicators' rendezvous (sharedMemory worlds)

	// Failure registry of the ULFM layer: permanently dead world ranks and
	// revoked communicator ids.  fmu is never held while a mailbox mutex is
	// (flags are set first, mailboxes woken after), so blocked receivers can
	// consult the registry from inside their mailbox wait loop.  Lock order:
	// mu before fmu when both are needed (grow).
	fmu     sync.Mutex
	dead    []bool
	revoked map[uint64]bool
}

// box returns world rank i's mailbox.
func (w *World) box(i int) *mailbox { return (*w.boxes.Load())[i] }

// boxList returns the current mailbox list (an immutable snapshot; grow
// publishes a fresh slice rather than mutating one in place).
func (w *World) boxList() []*mailbox { return *w.boxes.Load() }

// NewWorld creates a world of the given size.  model may be nil for
// real-time execution; a non-nil model prices all communication and enables
// virtual clocks.
func NewWorld(size int, model *simnet.CostModel) (*World, error) {
	return NewWorldWithFaults(size, model, fault.Plan{})
}

// NewWorldWithFaults is NewWorld under a seeded fault schedule: the plan's
// message faults are injected into every remote send, its crashes and
// stalls are consulted by the supersteps' checkpoint boundaries, and its
// watchdog bounds how long any receive may block on the wall clock.  The
// zero plan is exactly NewWorld.
func NewWorldWithFaults(size int, model *simnet.CostModel, plan fault.Plan) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("comm: world size must be positive, got %d", size)
	}
	if model != nil {
		if err := model.Topo.Validate(); err != nil {
			return nil, err
		}
	}
	inj, err := fault.New(plan)
	if err != nil {
		return nil, err
	}
	w := &World{
		size:     size,
		model:    model,
		inj:      inj,
		watchdog: plan.Watchdog,
		finals:   make([]time.Duration, size),
		stats:    make([]Stats, size),
		dead:     make([]bool, size),
		revoked:  make(map[uint64]bool),
		rdv:      make(map[rdvKey]*rendezvous),
	}
	boxes := make([]*mailbox, size)
	for i := range boxes {
		boxes[i] = newMailbox()
		boxes[i].watchdog = plan.Watchdog
	}
	w.boxes.Store(&boxes)
	return w, nil
}

// FaultInjector returns the world's fault injector (nil when fault-free).
func (w *World) FaultInjector() *fault.Injector { return w.inj }

// Size returns the current number of ranks (growable worlds may report a
// larger value after Spawn).
func (w *World) Size() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Model returns the world's cost model (nil in real-time mode).
func (w *World) Model() *simnet.CostModel { return w.model }

// errAborted is the panic value used to unblock ranks after a failure.
var errAborted = errors.New("comm: world aborted")

// rankEnd is how one rank's function ended.  runRank is the one place an
// unwind is classified; World.Run, World.Spawn and PersistentWorld jobs
// differ only in what they do with the verdict: whether it aborts the world
// and whether the rank's clock and stats are recorded.
type rankEnd int

const (
	rankReturned   rankEnd = iota // fn returned nil
	rankErrored                   // fn returned an error
	rankFailed                    // unwound by a FailureError no Try recovered
	rankPanicked                  // any other panic: a bug, not a protocol outcome
	rankDied                      // left by a scheduled permanent death (Comm.Die)
	rankCollateral                // unwound by errAborted: another rank's failure
)

// runRank runs fn on the rank's communicator and classifies how it ended.
// err is fn's error, the unrecovered FailureError (a typed error, not a
// panic dump), or the panic with its stack — a panicked error stays in the
// chain for errors.Is — and nil for the other three ends.  A scheduled death
// and a collateral unwind are not failures of this rank: the survivors carry
// on, or the rank that aborted the world reports the cause.
func runRank(c *Comm, fn func(c *Comm) error) (end rankEnd, err error) {
	defer func() {
		switch p := recover().(type) {
		case nil:
		case suicideExit:
			end = rankDied
		case *FailureError:
			end, err = rankFailed, p
		case error:
			if p == errAborted {
				end = rankCollateral
				return
			}
			end, err = rankPanicked, fmt.Errorf("panicked: %w\n%s", p, debug.Stack())
		default:
			end, err = rankPanicked, fmt.Errorf("panicked: %v\n%s", p, debug.Stack())
		}
	}()
	if err := fn(c); err != nil {
		return rankErrored, err
	}
	return rankReturned, nil
}

// record snapshots a rank's completion time and stats under the world mutex:
// ranks finish concurrently, and accessors (Makespan, TotalStats, RankStats)
// may poll while other ranks still run.  The owning goroutine takes the
// copy, so the live accumulator itself is never read cross-goroutine.
func (w *World) record(rank int, at time.Duration, st *Stats) {
	w.mu.Lock()
	w.finals[rank] = at
	w.stats[rank] = *st
	w.mu.Unlock()
}

// Run executes fn once per rank, each in its own goroutine, and waits for
// all of them.  If any rank returns an error, fails or panics, the world is
// aborted: blocked receives on other ranks unblock and those ranks
// terminate.  The returned error joins all per-rank failures.  A rank that
// returned (even with an error) or died on schedule records its clock and
// stats; any other rank records nothing.
//
// A World is single-shot: create a fresh one per Run.
func (w *World) Run(fn func(c *Comm) error) error {
	var wg sync.WaitGroup
	size := w.Size()
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := newWorldComm(w, rank, size)
			end, err := runRank(c, fn)
			if err != nil {
				errs[rank] = fmt.Errorf("comm: rank %d: %w", rank, err)
				w.abort()
			}
			if end == rankReturned || end == rankErrored || end == rankDied {
				w.record(rank, c.clock.Now(), c.stats)
			}
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// abort poisons every mailbox and rendezvous so blocked ranks unwind.  The
// aborted flag is set under mu before the snapshot, and grow swaps the
// mailbox list under the same mutex, so a concurrent grow either lands its
// boxes in this snapshot or observes the flag and poisons them itself —
// never neither; rendezvousOf poisons a rendezvous created after the flag.
func (w *World) abort() {
	w.mu.Lock()
	w.aborted = true
	boxes := w.boxList()
	for _, rv := range w.rdv {
		rv.poison()
	}
	w.mu.Unlock()
	for _, b := range boxes {
		b.abort()
	}
}

// grow extends the world by k fresh ranks — mailboxes registered for
// senders, failure registry widened, per-rank accounting extended — and
// returns their world ranks.  The new ranks have no goroutines yet; Spawn
// (or PersistentWorld.Grow) starts them.
func (w *World) grow(k int) []int {
	if k <= 0 {
		panic(fmt.Sprintf("comm: grow by %d ranks", k))
	}
	fresh := make([]*mailbox, k)
	for i := range fresh {
		fresh[i] = newMailbox()
		fresh[i].watchdog = w.watchdog
	}
	w.mu.Lock()
	w.fmu.Lock()
	old := w.size
	ranks := make([]int, k)
	for i := range ranks {
		ranks[i] = old + i
	}
	w.size += k
	w.finals = append(w.finals, make([]time.Duration, k)...)
	w.stats = append(w.stats, make([]Stats, k)...)
	w.dead = append(w.dead, make([]bool, k)...)
	list := make([]*mailbox, 0, old+k)
	list = append(list, w.boxList()...)
	list = append(list, fresh...)
	w.boxes.Store(&list)
	aborted := w.aborted
	w.fmu.Unlock()
	w.mu.Unlock()
	if aborted {
		// The world died while we were growing: poison the new boxes so the
		// joiners unwind like everyone else instead of blocking forever.
		for _, b := range fresh {
			b.abort()
		}
	}
	return ranks
}

// Spawned tracks the rank goroutines brought into a world by Spawn.
type Spawned struct {
	ranks []int
	wg    sync.WaitGroup
	errs  []error // errs[i] is written by joiner i alone, read after wg.Wait
}

// Ranks returns the world ranks assigned to the spawned goroutines, in
// spawn order (ascending).
func (s *Spawned) Ranks() []int { return append([]int(nil), s.ranks...) }

// Wait blocks until every spawned rank's fn has returned and joins their
// errors.  A joiner that unwound with a typed FailureError (its join was cut
// short by a death) reports it here rather than aborting the world — the
// surviving members own the recovery decision.
func (s *Spawned) Wait() error {
	s.wg.Wait()
	return errors.Join(s.errs...)
}

// Spawn brings k new rank goroutines into the running world: fresh link
// registration (mailboxes visible to every sender), seeded fault
// adjudication (the joiners share the world's injector and failure
// registry), and world ranks appended after the existing ones.  Each
// goroutine runs fn on a world-spanning communicator handle; a joiner
// typically calls AwaitGrow first to fold itself into the communicator the
// existing ranks derive with Grow.
//
// Unlike Run's ranks, a joiner whose fn returns an error or unwinds with a
// typed failure does NOT abort the world (nor records its clock and stats):
// a failed join must leave the incumbents free to recover via
// Revoke/Agree/Shrink.  Only an untyped panic (a bug, not a protocol
// outcome) aborts.
func (w *World) Spawn(k int, fn func(c *Comm) error) (*Spawned, error) {
	if k <= 0 {
		return nil, fmt.Errorf("comm: Spawn count must be positive, got %d", k)
	}
	ranks := w.grow(k)
	size := ranks[k-1] + 1
	s := &Spawned{ranks: ranks, errs: make([]error, k)}
	for i, rank := range ranks {
		s.wg.Add(1)
		go func(i, rank int) {
			defer s.wg.Done()
			c := newWorldComm(w, rank, size)
			end, err := runRank(c, fn)
			if err != nil {
				s.errs[i] = fmt.Errorf("comm: joiner rank %d: %w", rank, err)
			}
			switch end {
			case rankPanicked:
				w.abort()
			case rankReturned, rankDied:
				w.record(rank, c.clock.Now(), c.stats)
			}
		}(i, rank)
	}
	return s, nil
}

// Makespan returns the maximum per-rank completion time of the last Run —
// the virtual parallel execution time under the cost model (or each rank's
// wall-clock time with a nil model).
func (w *World) Makespan() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	var max time.Duration
	for _, t := range w.finals {
		if t > max {
			max = t
		}
	}
	return max
}

// RankTimes returns a copy of the per-rank completion times of the last Run.
func (w *World) RankTimes() []time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]time.Duration, len(w.finals))
	copy(out, w.finals)
	return out
}

// TotalStats sums the per-rank communication statistics of the last Run.
// Safe to call concurrently with Run; ranks still executing contribute
// their stats once they finish.
func (w *World) TotalStats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	var total Stats
	for i := range w.stats {
		total.Add(&w.stats[i])
	}
	return total
}

// RankStats returns a copy of the per-rank communication statistics of the
// last Run.  Safe to call concurrently with Run (same contract as
// TotalStats).
func (w *World) RankStats() []Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Stats, len(w.stats))
	copy(out, w.stats)
	return out
}
