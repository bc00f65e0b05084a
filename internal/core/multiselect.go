package core

import (
	"dhsort/internal/comm"
	"dhsort/internal/keys"
)

// FindSplittersViaSelection determines splitters that yield the same cuts
// as FindSplitters' by running the distributed selection of Algorithm 1
// once per target — the direct "k-way selection" framing of §II before the
// paper's histogramming optimization.  The values themselves can differ:
// selection returns input elements, histogramming any point whose counts
// bracket the target.
//
// The splitter for target T is the element of global rank T-1: its
// histogram bounds satisfy L < T <= U by construction.  Each selection
// costs O(log P) collective rounds, so the whole determination is
// O(P log P) rounds versus histogramming's O(key width) — the trade-off
// the ablation benchmark quantifies.  It exists as a correctness oracle
// and baseline; Sort always uses FindSplitters.
func FindSplittersViaSelection[K any](c *comm.Comm, local []K, ops keys.Ops[K], targets []int64, cfg Config) ([]K, error) {
	out := make([]K, len(targets))
	totalN := comm.AllreduceOne(c, int64(len(local)), func(a, b int64) int64 { return a + b })
	for i, T := range targets {
		k := T - 1
		if k < 0 {
			k = 0
		}
		if k >= totalN {
			k = totalN - 1
		}
		if totalN == 0 {
			continue
		}
		v, err := DSelect(c, local, k, ops, cfg)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
