package core

import (
	"cmp"
	"errors"
	"fmt"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/sortutil"
)

// Sort sorts the distributed sequence whose local share on this rank is
// local, and returns this rank's partition of the globally sorted result.
// It must be called collectively by every rank of c with a consistent
// configuration.
//
// The output invariant (§I): each returned partition is sorted, no element
// on rank i orders after any element on rank i+1, and — with Epsilon == 0
// and the uniqueness transformation enabled — rank i holds exactly as many
// elements as it contributed (perfect partitioning).  The input slice is
// not modified.
//
// Duplicate keys need no special treatment: Algorithm 4's boundary
// refinement splits runs of equal keys across ranks exactly.  Set
// cfg.ForceUnique to additionally apply the (key, rank, index)
// transformation of §V-A.
func Sort[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg Config) ([]K, error) {
	out, _, err := SortResilient(c, local, ops, cfg)
	return out, err
}

// SortResilient is Sort returning the effective communicator the result
// lives on.  Without shrink recovery that is c itself; with
// Config.Recovery == RecoveryShrink and a permanent rank death it is the
// shrunken survivor communicator — the one collective follow-ups
// (IsGloballySorted, further sorts) must run on.  A rank scheduled to die
// never returns at all; its goroutine exits inside the collective call.
func SortResilient[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg Config) ([]K, *comm.Comm, error) {
	if err := cfg.Validate(); err != nil {
		return nil, c, err
	}
	if !cfg.ForceUnique {
		return sortResilient(c, local, ops, cfg, bisection[K](cfg))
	}
	triples := keys.MakeUnique(local, c.Rank())
	if m := c.Model(); m != nil {
		c.Clock().Advance(m.ScanCost(int(float64(len(local)) * cfg.scale())))
	}
	out, eff, err := sortResilient(c, triples, keys.NewTripleOps(ops), cfg, bisection[keys.Triple[K]](cfg))
	if err != nil {
		return nil, eff, err
	}
	return keys.StripUnique(out), eff, nil
}

// Finder is the Splitting superstep: called collectively, it returns the
// P-1 splitter values — identical on every rank — that hit the global ranks
// targets within tolerance tol, searching this rank's sorted partition src;
// totalN is the global element count.
type Finder[K any] func(c *comm.Comm, src Source[K], ops keys.Ops[K], targets []int64, totalN, tol int64) []K

// bisection is the paper's splitter finder (Algorithms 2+3, k-ary with
// cfg.Probes) as a Finder.
func bisection[K any](cfg Config) Finder[K] {
	return func(c *comm.Comm, src Source[K], ops keys.Ops[K], targets []int64, totalN, tol int64) []K {
		splitters, _ := findSplittersOn(c, src, ops, targets, totalN, tol, cfg)
		return splitters
	}
}

// SortWith is SortResilient with the Splitting superstep supplied by the
// caller — how a sibling sorter (hss) runs the same Local Sort, cuts,
// exchange, merge, checkpoints and shrink recovery with its own splitter
// finder.  cfg is validated; cfg.ForceUnique is not applied (wrap the keys
// before calling).
func SortWith[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg Config, find Finder[K]) ([]K, *comm.Comm, error) {
	if err := cfg.Validate(); err != nil {
		return nil, c, err
	}
	return sortResilient(c, local, ops, cfg, find)
}

// sortResilient dispatches between the plain run and the ULFM-style
// shrink-recovery loop: run the supersteps; if a typed failure (rank death
// or revocation) unwinds them, revoke → agree → shrink → adopt the dead
// predecessor's mirrored shard → redo on the survivors.
func sortResilient[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg Config, find Finder[K]) ([]K, *comm.Comm, error) {
	if c.FaultInjector() == nil || cfg.Recovery != RecoveryShrink {
		// Fault-injecting worlds checkpoint at every superstep boundary so a
		// crashed-and-respawned rank re-enters from its snapshot; ck stays
		// nil (and boundary a no-op) on the fault-free fast path.
		var ck *checkpoint[K]
		if c.FaultInjector() != nil {
			ck = &checkpoint[K]{}
		}
		out, err := sortSteps(c, local, ops, cfg, find, ck)
		return out, c, err
	}
	eff := c
	work := local
	for {
		var (
			out     []K
			sortErr error
			ck      *checkpoint[K]
		)
		// A failure surfaces either as the boundary detector's error return
		// (the deterministic path) or, for asynchronous detection deep in a
		// collective, as the typed panic Try converts.  Shrink recovery owns
		// the checkpoint so it survives the unwind.
		err := comm.Try(func() {
			ck = &checkpoint[K]{}
			out, sortErr = sortSteps(eff, work, ops, cfg, find, ck)
		})
		if err == nil {
			err = sortErr
		}
		var fe *comm.FailureError
		if !errors.As(err, &fe) {
			if err != nil {
				return nil, eff, err
			}
			return out, eff, nil
		}
		next, adopted, err := shrinkRecover(eff, ck, ops, fe, cfg.Recorder)
		if err != nil {
			return nil, eff, err
		}
		if len(adopted) > 0 {
			merged := make([]K, 0, len(work)+len(adopted))
			merged = append(merged, work...)
			merged = append(merged, adopted...)
			work = merged
		}
		eff = next
	}
}

// shrinkRecover is one survivor's pass through the ULFM recipe after a
// failure unwound the supersteps: revoke the communicator so every peer
// unwinds too, agree on the survivor bitmap, audit that every victim's
// mirrored shard has a surviving holder, adopt the dead predecessor's
// shard, and shrink to the dense survivor communicator.  The whole pass is
// priced on the virtual clock and recorded as shrink time.  fe is the
// failure that unwound the supersteps; when it carries a boundary step, the
// suspicion fed to Agree is derived from the death schedule, giving every
// survivor an identical view even before the victims' registrations land.
// It returns the shrunken communicator and the elements adopted from the
// dead predecessor (nil when this rank adopted nothing).
func shrinkRecover[K any](eff *comm.Comm, ck *checkpoint[K], ops keys.Ops[K], fe *comm.FailureError, rec *metrics.Recorder) (*comm.Comm, []K, error) {
	start := eff.Clock().Now()
	eff.Revoke()
	var suspect []bool
	if fe != nil && fe.Step > 0 {
		inj := eff.FaultInjector()
		suspect = make([]bool, eff.Size())
		for r := range suspect {
			suspect[r] = inj.DieAt(eff.WorldRankOf(r), fe.Step)
		}
	}
	alive, rounds := eff.Agree(suspect)
	rec.AddAgreeRounds(rounds)

	// Loss audit: a victim's shard survives only at its immediate ring
	// successor.  If that successor died at the same boundary, the sort
	// cannot be loss-free — fail with the typed error rather than return
	// a silently incomplete result.
	p := eff.Size()
	deadCount := 0
	for r, a := range alive {
		if a {
			continue
		}
		deadCount++
		if !alive[(r+1)%p] {
			return nil, nil, fmt.Errorf("%w: ranks %d and %d", ErrShardLost, r, (r+1)%p)
		}
	}
	if deadCount == 0 {
		return nil, nil, fmt.Errorf("core: rank %d: communicator revoked but no rank is registered dead", eff.Rank())
	}

	// Adopt the dead predecessor's snapshot.  Its sorted partition is
	// invariant across the boundaries of one epoch (data only moves in the
	// exchange, after the last boundary), so any boundary's snapshot carries
	// the victim's full pre-exchange data — adoption is loss-free.
	var adopted []K
	prev := (eff.Rank() + p - 1) % p
	if !alive[prev] {
		if !ck.adoptable(prev) {
			return nil, nil, fmt.Errorf("%w: rank %d holds no mirror of dead rank %d", ErrShardLost, eff.Rank(), prev)
		}
		var aerr error
		adopted, aerr = ck.adopt(ops)
		if aerr != nil {
			return nil, nil, aerr
		}
		rec.AddFaultSpan("recover", fmt.Sprintf("adopted %d mirrored elements of dead rank %d", len(adopted), prev), 0)
	}

	nc := eff.Shrink(alive)
	d := eff.Clock().Now() - start
	rec.AddShrink(d, nc.Size())
	rec.AddFaultSpan("recover", fmt.Sprintf("shrunk %d -> %d survivors", p, nc.Size()), d)
	return nc, adopted, nil
}

// sortSteps runs the four supersteps of §V once, whatever the backing:
// Local Sort leaves the partition resident or, for budgeted configurations,
// as a sealed store run; the search supersteps read it through a Source and
// find the splitters with find; the exchange sends from it.  spillActive
// depends only on the shared Config and Ops, so every rank takes the same
// path and the exchange schedule stays consistent.  The collective
// operations, their payload sizes and the search pricing do not depend on
// the backing — the store is a host-side execution strategy the virtual
// clock never sees.
func sortSteps[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg Config, find Finder[K], ck *checkpoint[K]) (out []K, err error) {
	p := c.Size()
	rec := cfg.Recorder

	// Superstep 1: Local Sort, through the kernel dispatch.  The resident
	// path sorts the caller's slice into the partition; its arena is this
	// rank's scratch for the whole run (the exchange lands in the same
	// buffers, and the Local Merge ping-pongs between them and the
	// partition).  The external path sorts budget-sized chunks into store runs
	// merged into the partition run.
	rec.Enter(metrics.LocalSort)
	var (
		sorted []K // the resident partition
		ar     *sortutil.Arena[K]
		part   *extPartition[K] // the external one; nil when resident
		plan   *spillPlan[K]
	)
	if spillActive(cfg, ops) {
		plan = newSpillPlan(c, ops, cfg)
		if part, err = extSortLocal(c, local, ops, cfg, plan); err != nil {
			return nil, err
		}
		// The partition run and the checkpoint's replica run are this epoch's
		// scratch, so they go on every way out of it — return, failure, or an
		// unwind — but a scheduled death, whose adopter still reads them and
		// removes them (checkpoint.adopt).
		defer func() {
			cerr := part.Close()
			if ck == nil || !ck.died {
				cerr = cmp.Or(cerr, plan.st.Remove(part.name), ck.release())
			}
			if err == nil {
				err = cerr
			}
		}()
	} else {
		threads := cfg.threads()
		ar = &sortutil.Arena[K]{}
		sorted = make([]K, len(local))
		kernel, passes := LocalSortRuns(sorted, [][]K{local}, ops, cfg.Kernel, threads, ar)
		rec.SetLocalSort(kernel, threads)
		if model := c.Model(); model != nil {
			c.Clock().Advance(LocalSortCost(model, kernel, int(float64(len(sorted))*cfg.scale()), passes, threads))
		}
	}
	if p == 1 {
		if part != nil {
			sorted = part.Segment(0, part.Len())
		}
		rec.Finish()
		return sorted, nil
	}
	var splitters []K
	var cuts []int
	if err := ck.boundary(c, ops, cfg, StepLocalSort, &sorted, part, &splitters, &cuts); err != nil {
		return nil, err
	}

	// Superstep 2: Splitting.  Targets are the capacity prefix sums of
	// Definition 3; the tolerance comes from Definition 1.
	rec.Enter(metrics.Other)
	capacities := comm.AllgatherOne(c, int64(len(local)))
	targets, totalN, tol := splitTargets(capacities, cfg.Epsilon)

	// One source serves both search supersteps and the exchange: the resident
	// one encodes the key images once.  A crash restore re-installs an audited
	// copy of the same partition (a spilled one under the same run name), so
	// src reads it after any boundary.
	rec.Enter(metrics.Histogram)
	var src Source[K]
	if part != nil {
		src = part
	} else {
		src = newMemSource(sorted, ops, ar)
	}
	splitters = find(c, src, ops, targets, totalN, tol)
	if err := ck.boundary(c, ops, cfg, StepSplitting, &sorted, part, &splitters, &cuts); err != nil {
		return nil, err
	}

	// Supersteps 3 + 4: the permutation matrix, then the data exchange and
	// the Local Merge, whose schedule and consumer selectExchange picks.
	rec.Enter(metrics.Other)
	cuts = computeCutsOn(c, src, ops, splitters, targets, cfg)
	if err := ck.boundary(c, ops, cfg, StepCuts, &sorted, part, &splitters, &cuts); err != nil {
		return nil, err
	}
	// The exchange lands in the arena's scratch and the merge overwrites the
	// partition it sent from (a fresh slice, never a checkpoint copy: the
	// boundaries snapshot into, and restore installs from, storage of their
	// own), so a resident rank holds two n-sized buffers.
	rec.Enter(metrics.Exchange)
	if out, err = exchangeMerge(c, src, ops, cuts, cfg, ar, plan, sorted); err != nil { // enters Merge internally
		return nil, err
	}
	if cfg.Rebalance {
		rec.Enter(metrics.Other)
		out = RebalanceOutput(c, out, ops, cfg)
	}
	rec.Finish()
	return out, nil
}

// IsGloballySorted verifies the output invariant collectively: every local
// partition is sorted and no element orders after the first element of the
// next non-empty rank.  The verdict is returned on every rank.  After a
// shrink recovery, run it on the effective communicator SortResilient
// returned.
func IsGloballySorted[K any](c *comm.Comm, local []K, ops keys.Ops[K]) bool {
	ok := sortutil.IsSorted(local, ops.Less)
	// Share boundary elements: every rank publishes (has, first, last).
	type boundary struct {
		Has         bool
		First, Last K
	}
	b := boundary{Has: len(local) > 0}
	if b.Has {
		b.First, b.Last = local[0], local[len(local)-1]
	}
	all := comm.AllgatherOne(c, b)
	var prev *K
	for i := range all {
		if !all[i].Has {
			continue
		}
		if prev != nil && ops.Less(all[i].First, *prev) {
			ok = false
		}
		last := all[i].Last
		prev = &last
	}
	return comm.AllreduceOne(c, ok, func(a, b bool) bool { return a && b })
}
