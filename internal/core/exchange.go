package core

import (
	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/psort"
	"dhsort/internal/sortutil"
	"dhsort/internal/store"
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

// ExchangeAndMergeArena performs the single ALLTOALLV data exchange (§V-B)
// and the Local Merge superstep (§V-C) over a resident sorted partition,
// returning the rank's final sorted partition.  Local Merge scratch comes from
// ar, the per-rank arena the Local Sort superstep already paid for (nil means
// allocate).  cfg.MemBudget takes effect in Sort, whose spilled partition
// selects the spilled row of selectExchange.
func ExchangeAndMergeArena[K any](c *comm.Comm, sorted []K, ops keys.Ops[K], cuts []int, cfg Config, ar *sortutil.Arena[K]) []K {
	// The exchange only reads segments, so the source needs no search images;
	// and only a spilled consumer can fail.
	out, _ := exchangeMerge[K](c, memSource[K]{s: sorted, ops: ops}, ops, cuts, cfg, ar, nil)
	return out
}

// exchangeMerge is Supersteps 3 + 4 — the data exchange and the Local Merge —
// as a schedule delivering this rank's incoming segments to a consumer that
// turns them into the sorted partition, both picked by selectExchange.  The
// segment for rank d is src's [cuts[d], cuts[d+1]); plan is the spill plan of
// a spilled partition, nil for a resident one.
func exchangeMerge[K any](c *comm.Comm, src Source[K], ops keys.Ops[K], cuts []int, cfg Config, ar *sortutil.Arena[K], plan *spillPlan[K]) (out []K, err error) {
	// The bytes this rank puts on the wire: every segment but its own.
	me := c.Rank()
	outBytes := int64(cuts[len(cuts)-1]-(cuts[me+1]-cuts[me])) * int64(ops.Bytes())
	cfg.Recorder.AddExchangedBytes(int64(float64(outBytes) * cfg.scale()))
	sched, sink := selectExchange(c, ops, cfg, ar, plan)
	defer func() {
		if rerr := sink.release(); err == nil {
			err = rerr
		}
	}()
	if err := sched.deliver(c, src, cuts, cfg, sink); err != nil {
		return nil, err
	}
	return sink.finish()
}

// selectExchange is the one place the exchange is chosen, from the shared
// Config and whether the partition is spilled (plan != nil; spillActive is
// uniform across the collective), so every rank runs the same schedule:
//
//	spilled, references  1-factor span-reference rounds  one loser-tree merge over the senders' partition runs
//	spilled              1-factor sendrecv rounds        sealed store runs, one loser-tree merge
//	Exchange rma-put     1-factor put+notify rounds      the size-balanced runStack
//	Merge overlap        1-factor sendrecv rounds        the size-balanced runStack
//	otherwise            comm.AlltoallWith(Exchange)     blocks in sender order, then Merge
//
// The reference row needs every rank's partition run readable by every
// other under a name derived from its world rank (plan.refs: a shared store
// and no checkpoint) and P within the spill fan-in, since each rank holds a
// reader on all P runs at once; sortSteps reaches it only with P > 1.  Any
// other spilled partition stages its received segments as runs.  Both
// spilled rows price and tally the same wire pattern, so the choice is
// invisible to the virtual clock and spilled and resident ranks
// interoperate; the put rounds are inherently fused with merging, so
// rma-put takes precedence over Merge.
func selectExchange[K any](c *comm.Comm, ops keys.Ops[K], cfg Config, ar *sortutil.Arena[K], plan *spillPlan[K]) (schedule[K], consumer[K]) {
	switch {
	case plan != nil && plan.refs && c.Size() <= plan.fanIn:
		return spanRounds[K]{}, &spanMerge[K]{c: c, cfg: cfg, plan: plan}
	case plan != nil:
		return sendrecvRounds[K]{}, &spillSink[K]{c: c, cfg: cfg, plan: plan}
	case cfg.Exchange == comm.ExchangeRMAPut:
		return rmaPutRounds[K]{}, newRunStack(c, ops, cfg)
	case cfg.Merge == MergeOverlap:
		return sendrecvRounds[K]{}, newRunStack(c, ops, cfg)
	}
	return blockCollective[K]{}, &blockMerge[K]{c: c, ops: ops, cfg: cfg, ar: ar, runs: make([][]K, 0, c.Size())}
}

// schedule delivers this rank's incoming segments to sink, each tagged with
// its sender, and records the name of what ran; the first push error ends it
// and is returned.  Schedules are stateless, zero-size values: choosing one
// allocates nothing.
type schedule[K any] interface {
	deliver(c *comm.Comm, src Source[K], cuts []int, cfg Config, sink consumer[K]) error
}

// consumer turns the segments a schedule delivers into this rank's sorted
// partition.  push takes each as it lands — the own segment may be a view of
// the partition, which the output must not alias —, finish returns the
// partition once the schedule is done, and release frees what push kept
// however the exchange ended.
type consumer[K any] interface {
	push(from int, seg []K) error
	finish() ([]K, error)
	release() error
}

// blockCollective runs the ALLTOALLV as one block collective under
// cfg.Exchange — comm picks what runs, the node leaders' aggregation
// included — and pushes the received blocks in sender order.
type blockCollective[K any] struct{}

func (blockCollective[K]) deliver(c *comm.Comm, src Source[K], cuts []int, cfg Config, sink consumer[K]) error {
	cfg.Recorder.SetExchangeAlg(comm.EffectiveSchedule(c, cfg.Exchange).String())
	blocks := make([][]K, c.Size())
	for d := range blocks {
		blocks[d] = src.Segment(cuts[d], cuts[d+1])
	}
	for from, b := range comm.AlltoallWith(c, blocks, cfg.Exchange, cfg.scale()) {
		if err := sink.push(from, b); err != nil {
			return err
		}
	}
	return nil
}

// sendrecvRounds is the fused exchange of §VI-E1: the 1-factor rounds as
// explicit sendrecvs, round r on the protocol tag overlapTag+r.
type sendrecvRounds[K any] struct{}

func (sendrecvRounds[K]) deliver(c *comm.Comm, src Source[K], cuts []int, cfg Config, sink consumer[K]) error {
	cfg.Recorder.SetExchangeAlg("fused-1factor")
	return oneFactorExchange(c, segmentsOf(src, cuts), func(r, partner int, seg []K) []K {
		return comm.SendrecvProtocol(c, partner, overlapTag+r, seg, cfg.scale())
	}, sink.push)
}

// spanRounds is sendrecvRounds over a store every rank shares, paired with
// spanMerge: each round sends a (run, lo, hi) span of this rank's sealed
// partition run instead of its keys, and the partner's merge reads the span
// in place.  comm.SendrecvRef tallies and prices a span as the segment it
// stands for, on the same tag and in the same round order, so Stats and the
// virtual clock are sendrecvRounds' exactly — a host-side shortcut the
// model never sees.
//
// The runs' lifetime needs no extra collective.  Every rank opens a reader
// on every rank's partition run before its first send, and a reader outlives
// the removal of its run (store.Store.Remove).  A sender removes its run
// once its exchange has returned (sortSteps' defer), which cannot happen
// before every peer has sent to it, since each pair of ranks meets in
// exactly one round — so by then every peer holds its reader.
type spanRounds[K any] struct{}

func (spanRounds[K]) deliver(c *comm.Comm, _ Source[K], cuts []int, cfg Config, sink consumer[K]) error {
	cfg.Recorder.SetExchangeAlg("fused-1factor")
	m := sink.(*spanMerge[K])
	if err := m.openRuns(); err != nil {
		return err
	}
	run := partRun(c.WorldRank())
	return oneFactorExchange(c, func(d int) store.Span {
		return store.Span{Name: run, Lo: int64(cuts[d]), Hi: int64(cuts[d+1])}
	}, func(r, partner int, s store.Span) store.Span {
		return comm.SendrecvRef[K](c, partner, overlapTag+r, s, int(s.Len()), cfg.scale())
	}, m.pushSpan)
}

// oneFactorExchange runs the rounds of a 1-factorization of the
// communication graph [34]: it pushes this rank's own segment seg(me)
// first, then in each round hands seg(partner) to the per-round transport
// round, which returns the partner's segment for this rank, and pushes that
// as it lands.  A segment is keys, or on the reference row a span of the
// sender's partition run.  A consumer that merges on push advances the
// virtual clock between rounds, which models the overlap: a segment whose
// arrival precedes the clock costs no wait.
func oneFactorExchange[S any](c *comm.Comm, seg func(d int) S, round func(r, partner int, s S) S, push func(from int, s S) error) error {
	me, p := c.Rank(), c.Size()
	if err := push(me, seg(me)); err != nil {
		return err
	}
	for r := 0; r < comm.OneFactorRounds(p); r++ {
		partner := comm.OneFactorPartner(p, r, me)
		if partner < 0 {
			continue
		}
		if err := push(partner, round(r, partner, seg(partner))); err != nil {
			return err
		}
	}
	return nil
}

// segmentsOf returns the segments of src cut at cuts: d's is
// [cuts[d], cuts[d+1]).
func segmentsOf[K any](src Source[K], cuts []int) func(d int) []K {
	return func(d int) []K { return src.Segment(cuts[d], cuts[d+1]) }
}

// overlapTag is the tag base of the sendrecv rounds, drawn from the
// library-reserved space [comm.UserTagLimit, ∞): the rounds occupy
// [overlapTag, overlapTag+P), application tags cannot reach it (the
// Send/Recv family panics above comm.UserTagLimit — see checkUserTag), and
// SendrecvProtocol enforces the inverse bound here.
const overlapTag = comm.UserTagLimit

// blockMerge consumes the block collective: it keeps the received blocks as
// runs, in sender order and where the exchange left them, and merges them
// with cfg.Merge once all have landed — no strategy needs them concatenated.
type blockMerge[K any] struct {
	c     *comm.Comm
	ops   keys.Ops[K]
	cfg   Config
	ar    *sortutil.Arena[K]
	runs  [][]K
	total int
}

func (m *blockMerge[K]) push(_ int, b []K) error {
	if len(b) > 0 {
		m.runs = append(m.runs, b)
		m.total += len(b)
	}
	return nil
}

func (m *blockMerge[K]) finish() ([]K, error) {
	model, threads := m.c.Model(), m.cfg.threads()
	vtotal := int(float64(m.total) * m.cfg.scale())
	m.cfg.Recorder.Enter(metrics.Merge)
	var out []K
	switch m.cfg.Merge {
	case MergeBinaryTree:
		out = psort.ParallelMergeKBinary(m.runs, m.ops.Less, threads)
		if model != nil {
			m.c.Clock().Advance(model.Threaded(model.MergeCost(vtotal, len(m.runs)), threads))
		}
	case MergeLoserTree:
		// Sequential by design: the tournament tree's cache behaviour is
		// the §VI-E point of comparison.
		out = sortutil.MergeKLoser(m.runs, m.ops.Less)
		if model != nil {
			m.c.Clock().Advance(model.MergeCost(vtotal, len(m.runs)))
		}
	default: // MergeResort — the paper's evaluated strategy.
		// The re-sort runs through the same kernel dispatch as Local Sort,
		// gathering the blocks into the output and reusing the rank's
		// scratch arena.
		out = make([]K, m.total)
		kernel, passes := LocalSortRuns(out, m.runs, m.ops, m.cfg.Kernel, threads, m.ar)
		if model != nil {
			m.c.Clock().Advance(LocalSortCost(model, kernel, vtotal, passes, threads))
		}
	}
	return out, nil
}

func (m *blockMerge[K]) release() error { return nil }
