package core

import (
	"dhsort/internal/comm"
	"dhsort/internal/keys"
)

// rebalanceTagBase is the tag band of the post-merge rebalance rounds,
// drawn from the library-reserved space: above the fused-exchange band
// [comm.UserTagLimit, comm.UserTagLimit+P) and below the protocol tag table
// (comm.FaultControlTag …) at comm.UserTagLimit + 1<<20.  Boundary b of the
// rank line uses tag rebalanceTagBase + b.
const rebalanceTagBase = comm.UserTagLimit + 1<<16

// RebalanceOutput is the bounded rebalance step of the skew-proofing path
// (PGX.D-style): called collectively after the Local Merge with each rank's
// final partition, it checks the output against the imbalance bound of
// Definition 1 and, if any bucket exceeds it, sheds surplus to line
// neighbors until the partition is balanced — rank r's tail flows to r+1's
// head (and heads flow left), so the global order is preserved by
// construction.
//
// The flow schedule is derived deterministically from the allgathered
// bucket sizes, so every rank executes the same rounds without further
// coordination; rounds are capped at P (elements travel two boundaries per
// round, so every schedule settles within the cap).  All traffic is priced
// on the virtual clock through the protocol send path and the pass is
// recorded in metrics (rebalances / rounds / bytes / ns).
func RebalanceOutput[K any](c *comm.Comm, out []K, ops keys.Ops[K], cfg Config) []K {
	p := c.Size()
	if p <= 1 {
		return out
	}
	rec := cfg.Recorder
	model := c.Model()
	scale := cfg.scale()
	start := c.Clock().Now()

	sizes := comm.AllgatherOne(c, int64(len(out)))
	var total, maxSz int64
	for _, n := range sizes {
		total += n
		if n > maxSz {
			maxSz = n
		}
	}
	if total == 0 {
		return out
	}
	// Definition 1: no rank may hold more than N(1+ε)/P elements.  The
	// bound can never sit below a perfectly balanced (front-loaded) share,
	// nor, converted from a huge ε, above N.
	bound := int64(min(float64(total)*(1+cfg.Epsilon)/float64(p), float64(total)))
	if ceil := (total + int64(p) - 1) / int64(p); bound < ceil {
		bound = ceil
	}
	if maxSz <= bound {
		return out // within the bound: nothing to shed
	}

	// Target: the balanced front-loaded partition (every desired size is
	// ≤ ⌈N/P⌉ ≤ bound).  flow[b] > 0 means elements must cross boundary
	// (b, b+1) rightward, < 0 leftward; the per-boundary flow is the
	// difference of the current and desired prefix sums, which any
	// order-preserving redistribution must realize exactly.
	base, extra := total/int64(p), total%int64(p)
	desired := func(r int) int64 {
		if int64(r) < extra {
			return base + 1
		}
		return base
	}
	flow := make([]int64, p-1)
	var curPre, desPre int64
	for b := 0; b < p-1; b++ {
		curPre += sizes[b]
		desPre += desired(b)
		flow[b] = curPre - desPre
	}

	me := c.Rank()
	sim := append([]int64(nil), sizes...)
	var movedBytes int64
	rounds := 0
	for rounds < p {
		settled := true
		for _, f := range flow {
			if f != 0 {
				settled = false
				break
			}
		}
		if settled {
			break
		}
		rounds++
		// Even boundaries, then odd: each rank touches at most one boundary
		// per half-round, and the half-round order is part of the
		// deterministic schedule every rank simulates identically.
		for parity := 0; parity < 2; parity++ {
			for b := parity; b < p-1; b += 2 {
				f := flow[b]
				src, dst := b, b+1
				var m int64
				if f > 0 {
					m = min(f, sim[src])
				} else if f < 0 {
					src, dst = b+1, b
					m = min(-f, sim[src])
				}
				if m == 0 {
					continue
				}
				sim[src] -= m
				sim[dst] += m
				if f > 0 {
					flow[b] -= m
				} else {
					flow[b] += m
				}
				tag := rebalanceTagBase + b
				switch me {
				case src:
					var shed []K
					if src < dst { // tail flows rightward
						cut := len(out) - int(m)
						shed, out = out[cut:], out[:cut]
					} else { // head flows leftward
						shed, out = out[:m], out[m:]
					}
					comm.SendProtocol(c, dst, tag, shed, scale)
					movedBytes += int64(float64(int(m)*ops.Bytes()) * scale)
				case dst:
					got := comm.RecvProtocol[K](c, src, tag)
					if src < dst { // rightward flow arrives at the head
						joined := make([]K, 0, len(got)+len(out))
						joined = append(joined, got...)
						out = append(joined, out...)
					} else { // leftward flow arrives at the tail
						out = append(out, got...)
					}
					if model != nil {
						c.Clock().Advance(model.ScanCost(int(float64(len(got)) * scale)))
					}
					movedBytes += int64(float64(len(got)*ops.Bytes()) * scale)
				}
			}
		}
	}
	rec.AddRebalance(rounds, movedBytes, c.Clock().Now()-start)
	return out
}
