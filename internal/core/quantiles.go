package core

import (
	"fmt"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/sortutil"
)

// Quantiles returns q-1 cut values splitting the distributed sequence into
// q equal-count buckets (an equi-depth histogram).  Cut values need not be
// input elements; each splits at its target rank: with T = i·N/q, at most
// T keys order strictly before cut i and at least T at or before it,
// within the tolerance of cfg.Epsilon.  It reuses the splitter
// search of the sort (Algorithms 2+3) without moving any data, costing one
// small ALLREDUCE per refinement iteration.  Collective; local need not be
// sorted and is not modified.
func Quantiles[K any](c *comm.Comm, local []K, q int, ops keys.Ops[K], cfg Config) ([]K, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if q < 1 {
		return nil, fmt.Errorf("core: need at least one bucket, got %d", q)
	}
	sorted := make([]K, len(local))
	copy(sorted, local)
	sortutil.Sort(sorted, ops.Less)
	if m := c.Model(); m != nil {
		c.Clock().Advance(m.SortCost(int(float64(len(sorted)) * cfg.scale())))
	}
	totalN := comm.AllreduceOne(c, int64(len(sorted)), func(a, b int64) int64 { return a + b })
	targets := make([]int64, q-1)
	for i := range targets {
		targets[i] = totalN * int64(i+1) / int64(q)
	}
	cuts, _ := FindSplitters(c, sorted, ops, targets, tolerance(cfg.Epsilon, totalN, q), cfg)
	return cuts, nil
}
