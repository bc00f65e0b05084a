package core

import (
	"fmt"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/sortutil"
)

// Plan is the partitioning decision of a distributed sort, computed without
// moving any data: applications that manage their own payloads (e.g. large
// particles, matrix blocks) can compute a plan over keys alone and relocate
// the heavy objects themselves.
type Plan[K any] struct {
	// Splitters are the P-1 global splitter values (identical on every
	// rank); destination d owns keys in [Splitters[d-1], Splitters[d]).
	Splitters []K
	// Cuts partition this rank's locally sorted keys: the segment
	// [Cuts[d], Cuts[d+1]) goes to rank d.  len(Cuts) == P+1.
	Cuts []int
	// SendCounts[d] == Cuts[d+1]-Cuts[d], the ALLTOALLV send counts.
	SendCounts []int
	// Sorted is this rank's keys in local sort order — the order Cuts
	// refers to.
	Sorted []K
	// Perm maps positions of Sorted back to positions in the original
	// local slice, so satellite data can follow: Sorted[i] came from
	// local[Perm[i]].
	Perm []int
	// Iterations is the number of histogramming iterations used.
	Iterations int
}

// MakePlan computes the splitter determination and boundary refinement of a
// distributed sort (supersteps 1-2 plus the permutation matrix of §V-B) and
// returns the exchange plan, leaving all data in place.  Collective.
func MakePlan[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg Config) (Plan[K], error) {
	if err := cfg.Validate(); err != nil {
		return Plan[K]{}, err
	}
	p := c.Size()
	model := c.Model()

	// Indirect local sort so the caller can relocate satellite data.
	perm := make([]int, len(local))
	for i := range perm {
		perm[i] = i
	}
	sortutil.Sort(perm, func(a, b int) bool { return ops.Less(local[a], local[b]) })
	sorted := make([]K, len(local))
	for i, j := range perm {
		sorted[i] = local[j]
	}
	if model != nil {
		c.Clock().Advance(model.SortCost(cfg.Scaled(len(local))))
	}

	capacities := comm.AllgatherOne(c, int64(len(local)))
	targets, _, tol := splitTargets(capacities, cfg.Epsilon)

	splitters, iters := FindSplitters(c, sorted, ops, targets, tol, cfg)
	cuts := ComputeCuts(c, sorted, ops, splitters, targets, cfg)
	counts := make([]int, p)
	for d := 0; d < p; d++ {
		counts[d] = cuts[d+1] - cuts[d]
	}
	return Plan[K]{
		Splitters:  splitters,
		Cuts:       cuts,
		SendCounts: counts,
		Sorted:     sorted,
		Perm:       perm,
		Iterations: iters,
	}, nil
}

// Destination returns the rank that position i of Sorted is assigned to.
func (pl Plan[K]) Destination(i int) int {
	return sortutil.UpperBound(pl.Cuts[1:len(pl.Cuts)-1], i, func(a, b int) bool { return a < b })
}

// ExecutePlan relocates a satellite slice according to a plan computed by
// MakePlan on the same communicator: values[i] must correspond to the
// original local[i].  The returned slice holds the values assigned to this
// rank in *arrival order* — grouped by source rank ascending, each group in
// that source's key order.  Multiple satellite arrays exchanged with the
// same plan and config share this order, and applying ExecutePlan to the
// original keys yields the matching key sequence (merge locally for a fully
// sorted partition).  Collective.
func ExecutePlan[K, V any](c *comm.Comm, pl Plan[K], values []V, cfg Config) ([]V, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(values) != len(pl.Perm) {
		return nil, fmt.Errorf("core: plan covers %d elements, got %d values", len(pl.Perm), len(values))
	}
	// Rearrange into local key order, then ship segments to their owners.
	arranged := make([]V, len(values))
	for i, j := range pl.Perm {
		arranged[i] = values[j]
	}
	if m := c.Model(); m != nil {
		c.Clock().Advance(m.ScanCost(cfg.Scaled(len(values))))
	}
	out, _ := comm.AlltoallvWith(c, arranged, pl.SendCounts, cfg.Exchange, cfg.Scale())
	return out, nil
}
