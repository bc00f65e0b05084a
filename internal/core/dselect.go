package core

import (
	"fmt"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/selection"
)

// dselectSeqCutoff is the residual problem size below which the remaining
// candidates are gathered and solved sequentially (§IV-B: "If the size
// becomes too small the communication overhead is larger compared to the
// remaining compute overhead").
const dselectSeqCutoff = 2048

// DSelect returns the k-th smallest element (0-based) of the distributed
// sequence whose local share is local — Algorithm 1 of the paper, the
// building block the splitter search generalizes and the operation DASH
// exposes as dash::nth_element.  All ranks receive the result.
//
// Each iteration reduces the working set by at least one quarter (the
// weighted-median guarantee of Definition 2), giving O(log P) rounds of a
// single small ALLGATHER/ALLREDUCE each and O(n/P) local work per round,
// with no data movement at all.
//
// It must be called collectively; local is not modified.
func DSelect[K any](c *comm.Comm, local []K, k int64, ops keys.Ops[K], cfg Config) (K, error) {
	var zero K
	if err := cfg.Validate(); err != nil {
		return zero, err
	}
	model := c.Model()
	work := make([]K, len(local))
	copy(work, local)

	totalN := comm.AllreduceOne(c, int64(len(work)), func(a, b int64) int64 { return a + b })
	if k < 0 || k >= totalN {
		return zero, fmt.Errorf("core: DSelect rank %d out of range [0, %d)", k, totalN)
	}

	for {
		// Small residue: solve sequentially on rank 0 (§IV-B).
		if totalN <= dselectSeqCutoff {
			all := comm.Gather(c, 0, work)
			var result K
			if c.Rank() == 0 {
				var flat []K
				for _, b := range all {
					flat = append(flat, b...)
				}
				result = selection.Select(flat, int(k), ops.Less)
				if model != nil {
					c.Clock().Advance(model.SelectCost(len(flat)))
				}
			}
			return comm.BcastOne(c, 0, result), nil
		}

		// Line 4-7: local medians, weighted by partition sizes, reduced
		// to the weighted median M.
		type wmed struct {
			Has    bool
			Median K
			Weight int64
		}
		var mine wmed
		if len(work) > 0 {
			mine = wmed{Has: true, Weight: int64(len(work))}
			mine.Median = selection.Select(work, len(work)/2, ops.Less)
			if model != nil {
				c.Clock().Advance(model.SelectCost(len(work)))
			}
		}
		all := comm.AllgatherOne(c, mine)
		items := make([]selection.Weighted[K], 0, len(all))
		for _, w := range all {
			if w.Has {
				items = append(items, selection.Weighted[K]{Value: w.Median, Weight: float64(w.Weight)})
			}
		}
		m := selection.WeightedMedian(items, ops.Less)

		// Line 8-9: 3-way partition around M, then the global (L, E)
		// histogram in one ALLREDUCE.
		lo, eq := partition3(work, m, ops)
		if model != nil {
			c.Clock().Advance(model.ScanCost(len(work)))
		}
		counts := comm.Allreduce(c, []int64{int64(lo), int64(eq)}, func(a, b int64) int64 { return a + b })
		L, E := counts[0], counts[1]

		switch {
		case k >= L && k < L+E:
			// Line 10-11: the k-th order statistic equals the pivot.
			return m, nil
		case k < L:
			// Line 12-14: recurse on the lower parts.
			work = work[:lo]
			totalN = L
		default:
			// Line 15-18: recurse on the upper parts.
			work = work[lo+eq:]
			k -= L + E
			totalN -= L + E
		}
	}
}

// partition3 rearranges a around pivot m into [<m | ==m | >m] and returns
// the sizes of the first two regions.
func partition3[K any](a []K, m K, ops keys.Ops[K]) (lo, eq int) {
	lt, i, gt := 0, 0, len(a)
	for i < gt {
		switch {
		case ops.Less(a[i], m):
			a[i], a[lt] = a[lt], a[i]
			lt++
			i++
		case ops.Less(m, a[i]):
			gt--
			a[i], a[gt] = a[gt], a[i]
		default:
			i++
		}
	}
	return lt, gt - lt
}
