// Package bitonic implements Batcher's bitonic sorting network generalized
// to n/p > 1 (§III-C, references [17][18]): after a local sort, log2(P)
// bitonic merge stages exchange full partitions with hypercube partners and
// keep the lower or upper half.
//
// The network's constraints are exactly the ones the paper criticizes in
// related work: the rank count must be a power of two, all local partitions
// must have equal size, and every element is transferred log(P) times
// rather than once.  It serves as the "data moves log P times" baseline.
package bitonic

import (
	"fmt"
	"math/bits"

	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/sortutil"
)

// Sort sorts the distributed sequence collectively and returns this rank's
// partition (always exactly len(local) elements).  It requires a
// power-of-two rank count and equal local sizes on every rank, and returns
// an error otherwise — the constraints inherent to sorting networks.  It
// reads cfg's VirtualScale and Recorder.
func Sort[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg core.Config) ([]K, error) {
	p := c.Size()
	if p&(p-1) != 0 {
		return nil, fmt.Errorf("bitonic: rank count %d is not a power of two", p)
	}
	sizes := comm.AllgatherOne(c, len(local))
	for r, n := range sizes {
		if n != len(local) {
			return nil, fmt.Errorf("bitonic: unequal local sizes (rank %d has %d, rank %d has %d)",
				c.Rank(), len(local), r, n)
		}
	}
	model := c.Model()
	rec := cfg.Recorder

	rec.Enter(metrics.LocalSort)
	cur := make([]K, len(local))
	copy(cur, local)
	sortutil.Sort(cur, ops.Less)
	if model != nil {
		c.Clock().Advance(model.SortCost(cfg.Scaled(len(cur))))
	}
	if p == 1 || len(cur) == 0 {
		rec.Finish()
		return cur, nil
	}

	// Bitonic merge stages: after stage k, blocks of k consecutive ranks
	// hold globally sorted data, alternating ascending/descending so the
	// next stage sees bitonic sequences.
	rec.Enter(metrics.Exchange)
	stages := bits.Len(uint(p)) - 1
	const tag = 0
	for s := 1; s <= stages; s++ {
		k := 1 << s
		for j := s - 1; j >= 0; j-- {
			partner := c.Rank() ^ (1 << j)
			// Ascending block if the s-th bit of rank is 0.
			ascending := c.Rank()&k == 0
			keepLow := ascending == (c.Rank() < partner)
			comm.SendScaled(c, partner, tag, cur, cfg.Scale())
			other := comm.Recv[K](c, partner, tag)
			rec.Enter(metrics.Merge)
			cur = compareSplit(cur, other, keepLow, ops.Less)
			if model != nil {
				c.Clock().Advance(model.MergeCost(cfg.Scaled(2*len(cur)), 2))
			}
			rec.Enter(metrics.Exchange)
		}
	}
	rec.Finish()
	return cur, nil
}

// compareSplit merges two sorted runs of equal length and returns the lower
// or upper half — the compare-exchange of the network, lifted to blocks.
func compareSplit[K any](mine, other []K, keepLow bool, less func(a, b K) bool) []K {
	n := len(mine)
	out := make([]K, n)
	if keepLow {
		i, j := 0, 0
		for k := 0; k < n; k++ {
			if j >= len(other) || (i < n && !less(other[j], mine[i])) {
				out[k] = mine[i]
				i++
			} else {
				out[k] = other[j]
				j++
			}
		}
		return out
	}
	i, j := n-1, len(other)-1
	for k := n - 1; k >= 0; k-- {
		if j < 0 || (i >= 0 && !less(mine[i], other[j])) {
			out[k] = mine[i]
			i--
		} else {
			out[k] = other[j]
			j--
		}
	}
	return out
}
