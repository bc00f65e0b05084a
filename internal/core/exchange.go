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
	bounds := comm.AlltoallWith(c, sendBounds, comm.AlltoallBruck, 1, nil)

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
	myCuts := comm.AlltoallWith(c, replies, comm.AlltoallBruck, 1, nil)
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
// returning the rank's final sorted partition.  The exchange lands in the
// scratch of ar, the per-rank arena the Local Sort superstep already paid for
// (nil means allocate), and the result may be that scratch: ar is spent for
// as long as the result is live.  sorted is only read — the merge writes a
// buffer of its own where sortSteps reuses the dead partition.
// cfg.MemBudget takes effect in Sort, whose spilled partition selects the
// spilled row of selectExchange.
func ExchangeAndMergeArena[K any](c *comm.Comm, sorted []K, ops keys.Ops[K], cuts []int, cfg Config, ar *sortutil.Arena[K]) []K {
	// The exchange only reads segments, so the source needs no search images;
	// and only a spilled consumer can fail.
	out, _ := exchangeMerge[K](c, memSource[K]{s: sorted, ops: ops}, ops, cuts, cfg, ar, nil, nil)
	return out
}

// exchangeMerge is Supersteps 3 + 4 — the data exchange and the Local Merge —
// as a schedule delivering this rank's incoming segments to a consumer that
// turns them into the sorted partition, both picked by selectExchange.  The
// segment for rank d is src's [cuts[d], cuts[d+1]); plan is the spill plan of
// a spilled partition, nil for a resident one.  dead is a buffer the merge
// may overwrite once the exchange is over — the resident partition src
// reads, in sortSteps — or nil.
func exchangeMerge[K any](c *comm.Comm, src Source[K], ops keys.Ops[K], cuts []int, cfg Config, ar *sortutil.Arena[K], plan *spillPlan[K], dead []K) (out []K, err error) {
	// The bytes this rank puts on the wire: every segment but its own.
	me := c.Rank()
	outBytes := int64(cuts[len(cuts)-1]-(cuts[me+1]-cuts[me])) * int64(ops.Bytes())
	cfg.Recorder.AddExchangedBytes(int64(cfg.Scaled(int(outBytes))))
	sched, sink := selectExchange(c, ops, cfg, ar, plan, dead)
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
//	spilled, P ≤ fan-in  1-factor span-reference rounds  one block merge over the senders' partition runs
//	spilled              1-factor sendrecv rounds        sealed store runs, one block merge
//	Exchange rma-put     1-factor put+notify rounds      the size-balanced runStack
//	Merge overlap        1-factor sendrecv rounds        the size-balanced runStack
//	otherwise            comm.AlltoallWith(Exchange)     blocks in sender order, then Merge
//
// The reference row needs P within the spill fan-in, since each rank's
// merge holds a reader on all P senders' runs at once; sortSteps reaches it
// only with P > 1.  A spilled partition with P above the fan-in stages its
// received segments as runs.  Both spilled rows price and tally the same
// wire pattern, so the choice is invisible to the virtual clock and spilled
// and resident ranks interoperate; the put rounds are inherently fused with
// merging, so rma-put takes precedence over Merge.
func selectExchange[K any](c *comm.Comm, ops keys.Ops[K], cfg Config, ar *sortutil.Arena[K], plan *spillPlan[K], dead []K) (schedule[K], consumer[K]) {
	switch {
	case plan != nil && c.Size() <= plan.fanIn:
		return spanRounds[K]{}, &spanMerge[K]{c: c, cfg: cfg, plan: plan}
	case plan != nil:
		return sendrecvRounds[K]{}, &spillSink[K]{c: c, cfg: cfg, plan: plan}
	case cfg.Exchange == comm.ExchangeRMAPut:
		return rmaPutRounds[K]{}, &runStack[K]{c: c, ops: ops, cfg: cfg}
	case cfg.Merge == MergeOverlap:
		return sendrecvRounds[K]{}, &runStack[K]{c: c, ops: ops, cfg: cfg}
	}
	return blockCollective[K]{}, &blockMerge[K]{c: c, ops: ops, img: keys.ImageOf(ops), cfg: cfg, ar: ar, dead: dead, runs: make([][]K, 0, c.Size())}
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
// included — into blockMerge's receive buffer, and pushes the received
// blocks in sender order.
type blockCollective[K any] struct{}

func (blockCollective[K]) deliver(c *comm.Comm, src Source[K], cuts []int, cfg Config, sink consumer[K]) error {
	cfg.Recorder.SetExchangeAlg(comm.EffectiveSchedule(c, cfg.Exchange).String())
	blocks := make([][]K, c.Size())
	for d := range blocks {
		blocks[d] = src.Segment(cuts[d], cuts[d+1])
	}
	m := sink.(*blockMerge[K])
	for from, b := range comm.AlltoallWith(c, blocks, cfg.Exchange, cfg.Scale(), m.receiveBuffer(src.Len())) {
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
		return comm.SendrecvProtocol(c, partner, overlapTag+r, seg, cfg.Scale())
	}, sink.push)
}

// spanRounds is sendrecvRounds paired with spanMerge: each round sends a
// span of this rank's sealed partition run, and a reader this rank opened on
// that run, instead of the span's keys, and the partner's merge reads the
// span in place through that reader.  The reader is what makes any store
// work, a run-private one included, and is opened after every checkpoint
// boundary, so it reads the run a crash restore left.  comm.SendrecvRef
// tallies and prices a span as the segment it stands for, on the same tag
// and in the same round order, so Stats and the virtual clock are
// sendrecvRounds' exactly — a host-side shortcut the model never sees.
type spanRounds[K any] struct{}

func (spanRounds[K]) deliver(c *comm.Comm, src Source[K], cuts []int, cfg Config, sink consumer[K]) error {
	cfg.Recorder.SetExchangeAlg("fused-1factor")
	part := src.(*extPartition[K])
	return oneFactorExchange(c, func(d int) (spanRef, error) {
		return part.ref(cuts[d], cuts[d+1])
	}, func(r, partner int, s spanRef) spanRef {
		return comm.SendrecvRef[K](c, partner, overlapTag+r, s, int(s.Len()), cfg.Scale())
	}, sink.(*spanMerge[K]).pushSpan)
}

// oneFactorExchange runs the rounds of a 1-factorization of the
// communication graph [34]: it pushes this rank's own segment seg(me)
// first, then in each round hands seg(partner) to the per-round transport
// round, which returns the partner's segment for this rank, and pushes that
// as it lands.  A segment is keys, or on the reference row a span of the
// sender's partition run.  A consumer that merges on push advances the
// virtual clock between rounds, which models the overlap: a segment whose
// arrival precedes the clock costs no wait.  The first seg or push error
// ends the rounds.
func oneFactorExchange[S any](c *comm.Comm, seg func(d int) (S, error), round func(r, partner int, s S) S, push func(from int, s S) error) error {
	me := c.Rank()
	s, err := seg(me)
	if err == nil {
		err = push(me, s)
	}
	for r, partner := range comm.OneFactorSchedule(c.Size(), me) {
		if err != nil {
			break
		}
		if s, err = seg(partner); err == nil {
			err = push(partner, round(r, partner, s))
		}
	}
	return err
}

// segmentsOf returns the segments of src cut at cuts: d's is
// [cuts[d], cuts[d+1]).
func segmentsOf[K any](src Source[K], cuts []int) func(d int) ([]K, error) {
	return func(d int) ([]K, error) { return src.Segment(cuts[d], cuts[d+1]), nil }
}

// overlapTag is the tag base of the sendrecv rounds, drawn from the
// library-reserved space [comm.UserTagLimit, ∞): the rounds occupy
// [overlapTag, overlapTag+P), application tags cannot reach it (the
// Send/Recv family panics above comm.UserTagLimit — see checkUserTag), and
// SendrecvProtocol enforces the inverse bound here.
const overlapTag = comm.UserTagLimit

// blockMerge consumes the block collective: it keeps the received blocks as
// runs, in sender order and where the exchange left them — in recv, the
// arena's scratch, when they fit —, and merges them with cfg.Merge once all
// have landed.  The merge writes into dead and the arena, so a resident
// rank holds two n-sized buffers through the exchange and the merge: its
// partition and its arena.
type blockMerge[K any] struct {
	c     *comm.Comm
	ops   keys.Ops[K]
	img   keys.Image[K]
	cfg   Config
	ar    *sortutil.Arena[K]
	dead  []K // the partition, overwritten by the merge; nil: allocate
	recv  []K // the receive buffer; the runs lie in it when they fit
	runs  [][]K
	total int
}

// receiveBuffer returns the arena scratch the exchange lands in, n elements
// expected: for keys that are their own image, the image buffer the radix
// Local Sort used; otherwise the element buffer — except for records the
// element+image radix kernel sorts, whose first pass scatters into that
// buffer while it reads the runs: they land in a buffer of their own.
func (m *blockMerge[K]) receiveBuffer(n int) []K {
	if m.img.Self {
		m.recv = any(m.ar.Keys(n)).([]K)
	} else if m.img.Codec != nil || m.img.Width == 0 {
		m.recv = m.ar.Vals(n)
	}
	return m.recv
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
	vtotal := m.cfg.Scaled(m.total)
	m.cfg.Recorder.Enter(metrics.Merge)
	part := slices.Grow(m.dead[:0], m.total)[:m.total]
	switch {
	case m.cfg.Merge == MergeBinaryTree:
		if model != nil {
			m.c.Clock().Advance(model.Threaded(model.MergeCost(vtotal, len(m.runs)), threads))
		}
	case m.img.Self && (m.cfg.Kernel == "" || m.cfg.Kernel == KernelRadix):
		// The re-sort (the paper's evaluated strategy) of keys that are their
		// own radix image (uint64), when the dispatch would pick the radix
		// kernel, merges instead: the runs are already sorted, and the merge
		// tree orders them faster than the re-sort (EXPERIMENTS E24 has the
		// crossover by run count and length).  The modelled machine still
		// runs the paper's re-sort: the clock advances by the radix sort's
		// price at the k it would return, counted by sortutil.VaryingDigits
		// only when a model prices it — a host-side shortcut the virtual
		// clock never sees, as the prefix passes are.
		if model != nil {
			passes := sortutil.VaryingDigits(any(m.runs).([][]uint64), 8) // a uint64's 8 bytes
			m.c.Clock().Advance(LocalSortCost(model, KernelRadix, vtotal, passes, threads))
		}
	default:
		// The re-sort runs through the same kernel dispatch as Local Sort,
		// gathering the blocks into the dead partition and reusing the rank's
		// scratch arena.
		kernel, passes := LocalSortRuns(part, m.runs, m.ops, m.cfg.Kernel, threads, m.ar)
		if model != nil {
			m.c.Clock().Advance(LocalSortCost(model, kernel, vtotal, passes, threads))
		}
		return part, nil
	}
	// The merge ping-pongs between the receive buffer the runs lie in and
	// the dead partition, and the result is whichever its last level wrote.
	landed := m.recv
	if cap(landed) < m.total { // the exchange grew its own buffer
		landed = make([]K, m.total)
	}
	return MergeRuns(landed[:m.total], part, m.runs, m.ops), nil
}

func (m *blockMerge[K]) release() error { return nil }
