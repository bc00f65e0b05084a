// Package samplesort is the sample sort of §III-A in its regular-sampling
// form (PSRS, Shi and Schaeffer [12]): the zero-round ancestor of the
// paper's algorithm, whose splitters come from one gathered sample and are
// never refined.  The splitter rule is all that is its own; it runs core's
// supersteps (core.SortWith), so its comparison with dhsort measures
// splitter selection alone.  Algorithm 4's cuts clamp each target into its
// splitter's duplicate run, so a flooded value splits across ranks; on
// distinct keys balance stays probabilistic, O(N/P · (1 + 1/√s)).
package samplesort

import (
	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/keys"
	"dhsort/internal/sortutil"
)

// oversampling is the number of regular samples per rank (s).
const oversampling = 32

// SortResilient sorts the distributed sequence collectively and returns this
// rank's partition and the communicator it lives on (see core.SortResilient).
func SortResilient[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg core.Config) ([]K, *comm.Comm, error) {
	return core.SortWith(c, local, ops, cfg, psrs[K], psrs[keys.Triple[K]])
}

// psrs is regular sampling as a core.Finder: every rank contributes s keys at
// regular strides of its sorted partition and sorts the gathered pool, and
// splitter i is the pool's targets[i]/totalN quantile on every rank.
func psrs[K any](c *comm.Comm, src core.Source[K], ops keys.Ops[K], targets []int64, totalN, _ int64) []K {
	var sample []K
	if n := src.Len(); n > 0 {
		for i := 1; i <= oversampling; i++ {
			sample = append(sample, src.Key(max(i*n/(oversampling+1)-1, 0)))
		}
	}
	var pool []K
	for _, b := range comm.Allgather(c, sample) {
		pool = append(pool, b...)
	}
	sortutil.Sort(pool, ops.Less)
	if m := c.Model(); m != nil {
		c.Clock().Advance(m.SortCost(len(pool))) // every rank sorts the replicated pool
	}
	splitters := make([]K, len(targets))
	for i, t := range targets {
		if len(pool) > 0 { // else globally empty: every cut is 0
			splitters[i] = pool[min(int(int64(len(pool))*t/totalN), len(pool)-1)]
		}
	}
	return splitters
}
