package core

import (
	"math/bits"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/psort"
	"dhsort/internal/sortutil"
	"dhsort/internal/xmath"
)

// splitterState tracks one splitter's refinement interval in the embedded
// key space: the (S_il, S_i, S_iu) tuple of §V-A, with the bounds kept as
// bit points so that probe placement (Algorithm 3, line 6 — generalized
// from the bisection midpoint to k evenly spaced points) always makes
// progress and converges within the key width.
type splitterState[K any] struct {
	lo, hi xmath.U128
	// wlo, whi bracket, in this rank's partition, the local bounds of every
	// probe the boundary can still place: the keys of later probes order
	// strictly after every too-low key and at or before every too-high one,
	// so the local upper bound of the last too-low probe is a floor and that
	// of the first too-high probe a ceiling.  A search costs O(log window),
	// and the window is O(1) after ~log2(n/P) rounds.
	wlo, whi int
	// seed, when seeded, is the boundary's first probe in place of the
	// bisection midpoint: the point Config.Warm expects the splitter at.
	seed   xmath.U128
	seeded bool
	done   bool
	value  K
}

// minMax carries a pair of key images reduced by min and by max: one rank's
// key extrema, or its two candidates for one boundary's bracket.
type minMax struct {
	Has      bool
	Min, Max xmath.U128
}

func mergeMinMax(a, b minMax) minMax {
	switch {
	case !a.Has:
		return b
	case !b.Has:
		return a
	}
	out := minMax{Has: true, Min: a.Min, Max: a.Max}
	if b.Min.Less(out.Min) {
		out.Min = b.Min
	}
	if out.Max.Less(b.Max) {
		out.Max = b.Max
	}
	return out
}

// placeProbes appends the probe points for one unfinished splitter interval
// [lo, hi] to dst and returns the extended slice.  k = 1 yields the paper's
// bisection midpoint; k > 1 yields k evenly spaced interior points (or, for
// intervals narrower than k, every candidate point), so one round narrows
// the interval by a factor of k+1 instead of 2.  Probe placement is a pure
// function of the bounds — every rank computes the identical list, keeping
// the ALLREDUCE payload consistent across the collective.
func placeProbes(lo, hi xmath.U128, k int, dst []xmath.U128) []xmath.U128 {
	if k <= 1 {
		return append(dst, lo.Avg(hi))
	}
	width := hi.Sub(lo)
	if width.Hi == 0 && width.Lo <= uint64(k) {
		// Narrow interval: probe every candidate in [lo, hi).
		if width.Lo == 0 {
			return append(dst, lo)
		}
		for b := lo; b.Less(hi); b = b.Inc() {
			dst = append(dst, b)
		}
		return dst
	}
	step := width.Div64(uint64(k) + 1)
	b := lo
	for j := 0; j < k; j++ {
		b = b.Add(step)
		dst = append(dst, b)
	}
	return dst
}

// seedRanks returns the 1-based local ranks floor(T·n/N), at least 1, and
// ceil(T·n/N) of a rank's two candidates for the bracket of target T: the
// regular local quantiles of a rank holding n > 0 of the N keys, 0 < T < N.
func seedRanks(T, n, N int64) (int, int) {
	hi, lo := bits.Mul64(uint64(T), uint64(n))
	q, rem := bits.Div64(hi, lo, uint64(N)) // T < N, so the quotient is below n
	up := q
	if rem != 0 {
		up++
	}
	return int(max(q, 1)), int(up)
}

// localSeeds is one rank's payload of the reduction that opens the
// refinement: element 0 its key extrema, element i+1 its two candidates for
// the bracket of targets[i] — the keys at the local ranks seedRanks names.
// Reduced by mergeMinMax over all ranks they are the global extrema and, per
// boundary, a bracket [a, A] with L(a) <= T <= U(A): every rank holds at
// most floor(T·n/N) keys below a and at least ceil(T·n/N) at or below A.  An
// empty rank offers nothing, a degenerate target (outside (0, N)) is settled
// without a search and gets no bracket.  An embedding that is monotone but
// not exact (strings beyond 16 bytes) maps its upper candidate one point up,
// where FromBits orders at or after every key sharing the candidate's image.
func localSeeds[K any](src Source[K], ops keys.Ops[K], targets []int64, totalN int64) []minMax {
	mm := make([]minMax, len(targets)+1)
	n := src.Len()
	if n == 0 {
		return mm
	}
	mm[0] = minMax{Has: true, Min: src.At(0), Max: src.At(n - 1)}
	exact := keys.Lossless(ops)
	for i, T := range targets {
		if T <= 0 || T >= totalN {
			continue
		}
		lo, hi := seedRanks(T, int64(n), totalN)
		up := src.At(hi - 1)
		if !exact && up != xmath.MaxU128 {
			up = up.Inc()
		}
		mm[i+1] = minMax{Has: true, Min: src.At(lo - 1), Max: up}
	}
	return mm
}

// warmSeed is the probe a warm-start interval contributes: its midpoint —
// where a repeat of the run the interval was taken from converges in one
// round — provided it lies inside the boundary's bracket.  It narrows nothing
// by itself: the probe's verdict does, so a stale seed costs one round and an
// inverted, empty or far-off interval nothing.
func warmSeed(w WarmInterval, bracket minMax) (xmath.U128, bool) {
	mid := w.Lo.Avg(w.Hi)
	return mid, w.Lo.Less(w.Hi) && !mid.Less(bracket.Min) && !bracket.Max.Less(mid)
}

// refineSplitter applies one round's global histogram counts to a single
// splitter state.  probes[j] is the j-th probe (ascending), mids[j] its key,
// localU[j] this rank's upper bound of it, global[2j] and global[2j+1] its
// global lower/upper rank (L and U of Algorithm 2), T the target rank.
// Acceptance takes the first probe whose counts bracket the target,
// L - tol <= T <= U + tol: ComputeCuts clamps the realized split point to
// [L, U], so any such probe — an input key or a point in the gap between
// two — hands every rank exactly its share.  Otherwise the counts'
// monotonicity brackets the answer between the largest too-low probe and
// the smallest too-high probe, so every failed probe tightens a bound and
// the round always makes progress.
func refineSplitter[K any](st *splitterState[K], ops keys.Ops[K], probes []xmath.U128, mids []K, localU []int, global []int64, T, tol int64) {
scan:
	for j := range probes {
		L, U := global[2*j], global[2*j+1]
		switch {
		case L-tol <= T && T <= U+tol:
			st.done = true
			st.value = mids[j]
			return
		case U < T:
			// Too few elements at or below the probe: the answer is
			// strictly above it and above its key's canonical image (every
			// key up to that image orders at or before the probe's key).
			// Probes ascend, so the last one wins.
			st.lo = probes[j]
			if c := ops.ToBits(mids[j]); st.lo.Less(c) {
				st.lo = c
			}
			st.lo = st.lo.Inc()
			st.wlo = localU[j]
		default:
			// Too many strictly below (L - tol > T): the answer is at or
			// below this probe — and every later probe only counts more.
			st.hi = probes[j]
			st.whi = localU[j]
			break scan
		}
	}
}

// settle resolves whatever an open boundary can decide without a histogram
// round and then appends its next probes to probes and their keys to mids.
// Every rank holds the same states, so every rank settles identically.
//
// A probe whose key's canonical image ToBits(FromBits(p)) lies below lo is
// a key the boundary already rejected as too low — scalar keys populate
// only the high bits of the 128-bit space, so a midpoint can differ from
// such a key in meaningless low bits alone.  Its verdict is known: lo
// narrows past it here, which bounds the rounds by the significant key bits
// (not the embedding width) and keeps every placed probe strictly above the
// boundary's window floor.  An interval that collapses is accepted at its
// top — nothing representable is left below it.  A warm-started boundary
// probes its seed first, once.
func (st *splitterState[K]) settle(ops keys.Ops[K], k int, probes []xmath.U128, mids []K) ([]xmath.U128, []K) {
	base := len(probes)
	for {
		if !st.lo.Less(st.hi) {
			st.done = true
			st.value = ops.FromBits(st.hi)
			return probes[:base], mids[:base]
		}
		if st.seeded {
			st.seeded = false
			probes = append(probes[:base], st.seed)
		} else {
			probes = placeProbes(st.lo, st.hi, k, probes[:base])
		}
		mids = mids[:base]
		for _, b := range probes[base:] {
			mids = append(mids, ops.FromBits(b))
		}
		// Probes ascend and the canonical image is monotone, so the probes
		// below lo are a prefix.
		below := 0
		for base+below < len(probes) && ops.ToBits(mids[base+below]).Less(st.lo) {
			below++
		}
		if below == 0 {
			return probes, mids
		}
		st.lo = probes[base+below-1].Inc()
	}
}

// FindSplitters determines the P-1 splitter values for the given rank
// targets over the locally sorted partition (Algorithms 2+3).  targets[i]
// is the global rank T_i that splitter i must hit: splitter i is accepted
// when its global histogram satisfies L_i - tol <= T_i <= U_i + tol — the
// count interval Definition 4 asks for (relaxed by the ε tolerance of
// Definition 1), closed at L because ComputeCuts realizes T_i exactly from
// any such point, input key or not.
//
// Refinement starts from a seeded bracket per boundary, not from the global
// key range: the reduction that finds the key extrema also carries every
// rank's regular local quantiles for each target, whose minimum and maximum
// bracket a valid splitter (localSeeds has the argument; no sampling, no miss
// path).  Ranks whose local quantiles agree — one rank, or every rank drawing
// from one distribution — start almost converged; on a rank-partitioned
// input the bracket is the whole range and the rounds are the paper's, at
// most the significant key bits + 1.
//
// cfg.Probes > 1 places that many probes per unfinished boundary per round
// (k-ary refinement); cfg.Warm has a boundary probe the splitter of an
// earlier run first (warmSeed).  Converged boundaries leave the histogram payload
// entirely, so late rounds reduce O(active) counters, and the probe/histogram
// buffers are reused across rounds — the refinement loop itself allocates
// nothing.
//
// Returns the splitter values (identical on every rank) and the number of
// histogramming iterations.  When the input holds fewer distinct keys than
// ranks and the uniqueness transformation is disabled, intervals can
// collapse before the condition holds; such splitters finish at their
// collapsed point and only global order — not balance — is guaranteed.
func FindSplitters[K any](c *comm.Comm, sorted []K, ops keys.Ops[K], targets []int64, tol int64, cfg Config) ([]K, int) {
	if len(targets) == 0 {
		return nil, 0
	}
	totalN := comm.AllreduceOne(c, int64(len(sorted)), func(a, b int64) int64 { return a + b })
	return findSplittersOn[K](c, newMemSource(sorted, ops, nil), ops, targets, totalN, tol, cfg)
}

// findSplittersOn is FindSplitters over a Source and the global key
// count totalN its caller already holds, so the same refinement loop serves
// the resident and the external-memory partition.  Every collective payload
// and cost-model call depends only on element counts and probe bounds, never
// on the backing.
func findSplittersOn[K any](c *comm.Comm, src Source[K], ops keys.Ops[K], targets []int64, totalN, tol int64, cfg Config) ([]K, int) {
	nsplit := len(targets)
	model := c.Model()
	k := cfg.probes()
	threads := cfg.threads()
	n := src.Len()

	// One O(log P) reduction (§V-A) finds the global key extrema, mm[0], and
	// boundary i's bracket, mm[i+1].
	mm := localSeeds(src, ops, targets, totalN)
	if model != nil {
		c.Clock().Advance(model.ScanCost(2 * nsplit))
	}
	comm.AllreduceInPlace(c, mm, mergeMinMax)
	if !mm[0].Has {
		// Globally empty input: any splitter values do.
		return make([]K, nsplit), 0
	}

	states := make([]splitterState[K], nsplit)
	for i := range states {
		states[i] = splitterState[K]{lo: mm[i+1].Min, hi: mm[i+1].Max, whi: n}
		// Degenerate targets need no search.
		if targets[i] <= 0 {
			states[i].done = true
			states[i].value = ops.FromBits(mm[0].Min)
		} else if targets[i] >= totalN {
			states[i].done = true
			states[i].value = ops.FromBits(mm[0].Max)
		}
	}
	if len(cfg.Warm) == nsplit {
		warmed := false
		for i := range states {
			if states[i].done {
				continue
			}
			if seed, ok := warmSeed(cfg.Warm[i], mm[i+1]); ok {
				states[i].seed, states[i].seeded = seed, true
				warmed = true
			}
		}
		if warmed {
			cfg.Recorder.SetWarmStart()
		}
	}
	if k > 1 {
		cfg.Recorder.SetProbes(k)
	}

	// Round buffers, sized once for the worst round (every boundary
	// unfinished, k probes each) and resliced per round: the loop body is
	// allocation-free.
	iters := 0
	active := make([]int, 0, nsplit)
	offs := make([]int, nsplit+1)
	probeBits := make([]xmath.U128, 0, k*nsplit)
	mids := make([]K, 0, k*nsplit)
	hist := make([]int64, 2*k*nsplit)
	localU := make([]int, k*nsplit)
	// The search body and the reduction operator are built once: a closure
	// constructed inside the loop would put one allocation back per round.
	search := func(ai int) {
		st := &states[active[ai]]
		for pi := offs[ai]; pi < offs[ai+1]; pi++ {
			l, u := src.Bounds(mids[pi], st.wlo, st.whi)
			hist[2*pi], hist[2*pi+1] = int64(l), int64(u)
			localU[pi] = u
		}
	}
	addInt64 := func(a, b int64) int64 { return a + b }
	for iters < cfg.maxIters() {
		// Probe placement: k points per unfinished boundary.  Converged
		// boundaries have left the payload (active-set compaction).
		active, probeBits, mids = active[:0], probeBits[:0], mids[:0]
		for i := range states {
			st := &states[i]
			if st.done {
				continue
			}
			probeBits, mids = st.settle(ops, k, probeBits, mids)
			if st.done {
				continue
			}
			active = append(active, i)
			offs[len(active)] = len(probeBits)
		}
		if len(active) == 0 {
			break
		}
		iters++
		cfg.Recorder.AddIteration()
		np := len(probeBits)

		// Local histogram: lower/upper bounds of each probe by binary
		// search in the locally sorted partition (Alg. 3 line 7), each
		// inside its boundary's window.  The searches are independent
		// reads, so they fork across the thread budget; the cost model
		// prices every search of the round at the paper's full-partition
		// cost.
		workers := searchWorkers(threads, np, n)
		psort.ParallelFor(len(active), workers, search)
		if model != nil {
			c.Clock().Advance(model.Threaded(model.SearchCost(n, 2*np), workers))
		}

		// Global histogram: one ALLREDUCE over the active probes
		// (Alg. 3 line 8), reduced in place into the round buffer.
		global := comm.AllreduceInPlace(c, hist[:2*np], addInt64)

		// Validate each splitter against its probes (Algorithm 2).
		for ai, i := range active {
			lo, hi := offs[ai], offs[ai+1]
			refineSplitter(&states[i], ops, probeBits[lo:hi], mids[lo:hi], localU[lo:hi], global[2*lo:2*hi], targets[i], tol)
		}
	}

	out := make([]K, nsplit)
	for i, st := range states {
		if !st.done {
			// Iteration budget exhausted; accept the current interval top.
			st.value = ops.FromBits(st.hi)
		}
		out[i] = st.value
	}
	// Defensive monotonicity (valid splitter ranges for increasing targets
	// are ascending, but collapsed intervals may break ties).
	sortutil.Sort(out, ops.Less)
	if cfg.SplitterSink != nil {
		bits := make([]xmath.U128, nsplit)
		for i := range out {
			bits[i] = ops.ToBits(out[i])
		}
		cfg.SplitterSink(bits, iters)
	}
	return out, iters
}
