package core

import (
	"slices"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/psort"
	"dhsort/internal/sortutil"
)

// ComputeCuts turns the splitter values into per-rank cut positions such
// that destination d receives exactly its target share — the permutation
// matrix construction with boundary refinement of §V-B (Algorithm 4).
//
// Communication: two ALLTOALL rounds of O(P) elements per rank, as in the
// paper.  Round 1 sends each rank's (l_d, u_d) bounds to rank d, which is
// responsible for row d of the matrix; rank d assigns the T_d - L_d excess
// elements greedily from the u_d - l_d contingents; round 2 returns the
// refined cuts.  Blocks of one or two counters are §VI-E1's small-message
// regime, so both rounds run the store-and-forward schedule: ceil(log2 P)
// messages per rank and round instead of P, each block priced with its
// 16-byte header on every hop.
//
// The returned cuts have length P+1 with cuts[0] = 0 and cuts[P] = n; the
// segment [cuts[d], cuts[d+1]) of the locally sorted partition goes to
// rank d.
func ComputeCuts[K any](c *comm.Comm, sorted []K, ops keys.Ops[K], splitters []K, targets []int64, cfg Config) []int {
	return computeCutsOn[K](c, newMemSource(sorted, ops, nil), ops, splitters, targets, cfg)
}

// computeCutsOn is ComputeCuts over a Source, shared by the resident
// and external-memory paths; communication and pricing depend only on
// element counts, never on the backing.
func computeCutsOn[K any](c *comm.Comm, src Source[K], ops keys.Ops[K], splitters []K, targets []int64, cfg Config) []int {
	p := c.Size()
	n := src.Len()
	model := c.Model()
	cuts := make([]int, p+1)
	cuts[p] = n
	if p == 1 {
		return cuts
	}

	// Local bounds of every splitter: l_d keys are strictly below splitter
	// d, u_d at or below it.  The P-1 searches are independent reads of
	// the sorted partition, so they fork across the thread budget.  The
	// pairs are carved from one backing slice; rank 0 has no lower boundary
	// splitter, so its pair stays (0, 0).
	lu := make([]int64, 2*p)
	sendBounds := make([][]int64, p)
	for d := range sendBounds {
		sendBounds[d] = lu[2*d : 2*d+2]
	}
	workers := searchWorkers(cfg.threads(), p-1, n)
	psort.ParallelFor(p-1, workers, func(i int) {
		l, u := src.Bounds(splitters[i], 0, n)
		lu[2*i+2], lu[2*i+3] = int64(l), int64(u)
	})
	if model != nil {
		c.Clock().Advance(model.Threaded(model.SearchCost(n, 2*(p-1)), workers))
	}

	// Round 1: rank d collects every rank's bounds for splitter d.
	bounds := comm.AlltoallWith(c, sendBounds, comm.AlltoallBruck, 1)

	// Row d of the permutation matrix: choose c_d^r in [l^r, u^r] with
	// sum_r c_d^r = G_d (Algorithm 4's refinement loop).  The one-element
	// replies are carved from one backing slice; rank 0 replies 0 to all.
	row := make([]int64, p)
	replies := make([][]int64, p)
	for r := range replies {
		replies[r] = row[r : r+1]
	}
	if c.Rank() != 0 {
		var L, U int64
		for r := 0; r < p; r++ {
			L += bounds[r][0]
			U += bounds[r][1]
		}
		// Realized split point: the target when reachable, else the
		// closest histogram bound (only short with duplicate keys and
		// the uniqueness transformation disabled).
		G := targets[c.Rank()-1]
		if G < L {
			G = L
		}
		if G > U {
			G = U
		}
		excess := G - L // elements to fill up beyond the lower bounds
		for r := 0; r < p; r++ {
			slack := bounds[r][1] - bounds[r][0]
			take := excess
			if take > slack {
				take = slack
			}
			row[r] = bounds[r][0] + take
			excess -= take
		}
	}
	if model != nil {
		c.Clock().Advance(model.ScanCost(2 * p))
	}

	// Round 2: every rank learns its cut for each destination boundary.
	myCuts := comm.AlltoallWith(c, replies, comm.AlltoallBruck, 1)
	for d := 1; d < p; d++ {
		cuts[d] = int(myCuts[d][0])
	}
	// Defensive clamping: monotone within [0, n].  (Exact by construction
	// with unique keys.)
	for d := 1; d <= p; d++ {
		if cuts[d] < cuts[d-1] {
			cuts[d] = cuts[d-1]
		}
		if cuts[d] > n {
			cuts[d] = n
		}
	}
	return cuts
}

// ExchangeAndMerge performs the single ALLTOALLV data exchange (§V-B) and
// the Local Merge superstep (§V-C), returning the rank's final sorted
// partition.  It exchanges a resident partition: cfg.MemBudget takes effect
// in Sort, whose external-memory path runs its own spilled exchange.
func ExchangeAndMerge[K any](c *comm.Comm, sorted []K, ops keys.Ops[K], cuts []int, cfg Config) []K {
	return ExchangeAndMergeArena(c, sorted, ops, cuts, cfg, nil)
}

// ExchangeAndMergeArena is ExchangeAndMerge drawing Local Merge scratch
// from ar, the per-rank arena the Local Sort superstep already paid for
// (nil means allocate).
func ExchangeAndMergeArena[K any](c *comm.Comm, sorted []K, ops keys.Ops[K], cuts []int, cfg Config, ar *sortutil.Arena[K]) []K {
	p := c.Size()
	model := c.Model()
	scale := cfg.scale()
	threads := cfg.threads()

	sendCounts := make([]int, p)
	for d := 0; d < p; d++ {
		sendCounts[d] = cuts[d+1] - cuts[d]
	}
	recordExchange(c, ops, cuts, cfg)

	// The one-sided path subsumes MergeOverlap: its notify-driven merge is
	// inherently fused, so it takes precedence over the merge strategy.
	if cfg.Exchange == comm.ExchangeRMAPut {
		cfg.Recorder.SetExchangeAlg(comm.ExchangeRMAPut.String())
		return rmaPutExchangeMerge(c, sorted, ops, sendCounts, cfg)
	}
	if cfg.Merge == MergeOverlap {
		return overlapExchangeMerge(c, sorted, ops, cuts, cfg)
	}
	// The received blocks stay where the exchange left them, indexed by
	// sender: every merge strategy reads them as runs, none needs them
	// concatenated.
	var blocks [][]K
	exchange := cfg.Exchange
	if exchange == comm.AlltoallHierarchical {
		rpn := 1
		if model != nil {
			rpn = model.Topo.RanksPerNode
		}
		if rpn > 1 {
			cfg.Recorder.SetExchangeAlg(comm.AlltoallHierarchical.String())
			recv, recvCounts := comm.AlltoallvHier(c, sorted, sendCounts, rpn, scale)
			blocks = segments(recv, recvCounts)
		} else {
			// Hierarchical aggregation needs node topology; without it the
			// exchange runs the 1-factor schedule.  Record the algorithm
			// that actually ran, not the requested one, so the metrics
			// document never claims an aggregation that did not happen.
			exchange = comm.AlltoallOneFactor
		}
	}
	if blocks == nil {
		cfg.Recorder.SetExchangeAlg(exchange.String())
		blocks = comm.AlltoallWith(c, segments(sorted, sendCounts), exchange, scale)
	}

	cfg.Recorder.Enter(metrics.Merge)
	runs := make([][]K, 0, p)
	total := 0
	for _, b := range blocks {
		if len(b) > 0 {
			runs = append(runs, b)
			total += len(b)
		}
	}
	var out []K
	switch cfg.Merge {
	case MergeBinaryTree:
		out = psort.ParallelMergeKBinary(runs, ops.Less, threads)
		if model != nil {
			c.Clock().Advance(model.Threaded(model.MergeCost(int(float64(total)*scale), len(runs)), threads))
		}
	case MergeLoserTree:
		// Sequential by design: the tournament tree's cache behaviour is
		// the §VI-E point of comparison.
		out = sortutil.MergeKLoser(runs, ops.Less)
		if model != nil {
			c.Clock().Advance(model.MergeCost(int(float64(total)*scale), len(runs)))
		}
	default: // MergeResort — the paper's evaluated strategy.
		// The re-sort runs through the same kernel dispatch as Local Sort,
		// gathering the blocks into the output and reusing the rank's
		// scratch arena.
		out = make([]K, total)
		kernel, passes := LocalSortRuns(out, runs, ops, cfg.Kernel, threads, ar)
		if model != nil {
			c.Clock().Advance(LocalSortCost(model, kernel, int(float64(total)*scale), passes, threads))
		}
	}
	return out
}

// segments cuts data into consecutive blocks of the given lengths, which
// must sum to len(data).
func segments[K any](data []K, counts []int) [][]K {
	blocks := make([][]K, len(counts))
	off := 0
	for i, n := range counts {
		blocks[i] = data[off : off+n]
		off += n
	}
	return blocks
}

// recordExchange books the bytes this rank puts on the wire: every segment
// of the cuts but its own.
func recordExchange[K any](c *comm.Comm, ops keys.Ops[K], cuts []int, cfg Config) {
	me := c.Rank()
	outBytes := int64(cuts[len(cuts)-1]-(cuts[me+1]-cuts[me])) * int64(ops.Bytes())
	cfg.Recorder.AddExchangedBytes(int64(float64(outBytes) * cfg.scale()))
}

// overlapExchangeMerge is the §VI-E1 fused exchange: the 1-factor rounds,
// merging each received chunk into the accumulated output immediately.
// Under the virtual clock this models overlap naturally: merge time advances
// the local clock, so a chunk whose arrival precedes the clock costs no wait.
func overlapExchangeMerge[K any](c *comm.Comm, sorted []K, ops keys.Ops[K], cuts []int, cfg Config) []K {
	stack := newRunStack(c, ops, cfg)
	seg := func(lo, hi int) []K { return sorted[lo:hi] }
	// The sink cannot fail, so neither can the rounds.
	_ = oneFactorExchange(c, seg, cuts, cfg, func(i int, chunk []K) error {
		if i == 0 {
			chunk = slices.Clone(chunk) // the own segment: the output must not alias sorted
		}
		stack.push(chunk)
		return nil
	})
	return stack.finish()
}

// oneFactorExchange runs the fused exchange's explicit sendrecv rounds over a
// 1-factorization of the communication graph [34].  seg returns the outgoing
// segment [lo, hi) of the sorted partition, whose per-destination boundaries
// are cuts; sink takes this rank's own segment as chunk 0 and then, as each
// lands, the chunk of round r's partner as chunk r+1.  The first sink error
// ends the rounds and is returned.
func oneFactorExchange[K any](c *comm.Comm, seg func(lo, hi int) []K, cuts []int, cfg Config, sink func(i int, chunk []K) error) error {
	me, p := c.Rank(), c.Size()
	cfg.Recorder.SetExchangeAlg("fused-1factor")
	if err := sink(0, seg(cuts[me], cuts[me+1])); err != nil {
		return err
	}
	for r := 0; r < comm.OneFactorRounds(p); r++ {
		partner := comm.OneFactorPartner(p, r, me)
		if partner < 0 {
			continue
		}
		got := comm.SendrecvProtocol(c, partner, overlapTag+r, seg(cuts[partner], cuts[partner+1]), cfg.scale())
		if err := sink(r+1, got); err != nil {
			return err
		}
	}
	return nil
}

// overlapTag is the tag base of the fused exchange rounds, drawn from the
// library-reserved space [comm.UserTagLimit, ∞): the rounds occupy
// [overlapTag, overlapTag+P), application tags cannot reach it (the
// Send/Recv family panics above comm.UserTagLimit — see checkUserTag), and
// SendrecvProtocol enforces the inverse bound here.
const overlapTag = comm.UserTagLimit
