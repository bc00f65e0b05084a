package core

import (
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
	// warm marks bounds seeded from Config.Warm: if such an interval
	// collapses without satisfying the histogram condition, the seed was
	// stale and the state falls back to the cold full-range bounds
	// instead of accepting a wrong point.
	warm  bool
	done  bool
	value K
}

// minMax carries one rank's key extrema through a reduction.
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

// clampWarm clamps a warm-start interval to the run's global key extrema
// and reports whether anything of it survives as a usable bound.
func clampWarm(w WarmInterval, min, max xmath.U128) (xmath.U128, xmath.U128, bool) {
	lo, hi := w.Lo, w.Hi
	if lo.Less(min) {
		lo = min
	}
	if max.Less(hi) {
		hi = max
	}
	return lo, hi, lo.Less(hi)
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
// top — nothing representable is left below it — unless it was seeded from
// Config.Warm, in which case the seed was stale and the boundary restarts
// from the cold bounds cold.Min, cold.Max over the whole partition [0, n].
func (st *splitterState[K]) settle(ops keys.Ops[K], k int, cold minMax, n int, probes []xmath.U128, mids []K) ([]xmath.U128, []K) {
	base := len(probes)
	for {
		if !st.lo.Less(st.hi) {
			if !st.warm {
				st.done = true
				st.value = ops.FromBits(st.hi)
				return probes[:base], mids[:base]
			}
			st.lo, st.hi, st.warm = cold.Min, cold.Max, false
			st.wlo, st.whi = 0, n
		}
		probes = placeProbes(st.lo, st.hi, k, probes[:base])
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
// cfg.Probes > 1 places that many probes per unfinished boundary per round
// (k-ary refinement); cfg.Warm seeds boundaries with intervals from an
// earlier run.  Converged boundaries leave the histogram payload entirely,
// so late rounds reduce O(active) counters, and the probe/histogram buffers
// are reused across rounds — the refinement loop itself allocates nothing.
//
// Returns the splitter values (identical on every rank) and the number of
// histogramming iterations.  When the input holds fewer distinct keys than
// ranks and the uniqueness transformation is disabled, intervals can
// collapse before the condition holds; such splitters finish at their
// collapsed point and only global order — not balance — is guaranteed.
func FindSplitters[K any](c *comm.Comm, sorted []K, ops keys.Ops[K], targets []int64, tol int64, cfg Config) ([]K, int) {
	return findSplittersOn[K](c, newMemSource(sorted, ops), ops, targets, tol, cfg)
}

// findSplittersOn is FindSplitters over a sortedSource, so the same
// refinement loop serves the resident and the external-memory partition.
// Every collective payload and cost-model call depends only on element
// counts and probe bounds, never on the backing.
func findSplittersOn[K any](c *comm.Comm, src sortedSource[K], ops keys.Ops[K], targets []int64, tol int64, cfg Config) ([]K, int) {
	nsplit := len(targets)
	if nsplit == 0 {
		return nil, 0
	}
	model := c.Model()
	k := cfg.probes()
	threads := cfg.threads()
	n := src.Len()

	// Global key extrema: one O(log P) reduction (§V-A).
	local := minMax{}
	if mn, mx, ok := src.Extrema(); ok {
		local = minMax{Has: true, Min: mn, Max: mx}
	}
	mm := comm.AllreduceOne(c, local, mergeMinMax)
	if !mm.Has {
		// Globally empty input: any splitter values do.
		return make([]K, nsplit), 0
	}

	totalN := comm.AllreduceOne(c, int64(n), func(a, b int64) int64 { return a + b })

	states := make([]splitterState[K], nsplit)
	for i := range states {
		states[i] = splitterState[K]{lo: mm.Min, hi: mm.Max, whi: n}
		// Degenerate targets need no search.
		if targets[i] <= 0 {
			states[i].done = true
			states[i].value = ops.FromBits(mm.Min)
		} else if targets[i] >= totalN {
			states[i].done = true
			states[i].value = ops.FromBits(mm.Max)
		}
	}
	if len(cfg.Warm) == nsplit {
		warmed := false
		for i := range states {
			if states[i].done {
				continue
			}
			if lo, hi, ok := clampWarm(cfg.Warm[i], mm.Min, mm.Max); ok {
				states[i].lo, states[i].hi, states[i].warm = lo, hi, true
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
			probeBits, mids = st.settle(ops, k, mm, n, probeBits, mids)
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
