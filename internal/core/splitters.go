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
	done   bool
	value  K
	itp    itpState
}

// MinMax carries a pair of key images reduced by MergeMinMax: one rank's
// key extrema, or its two candidates for one boundary's bracket.
type MinMax struct {
	Has      bool
	Min, Max xmath.U128
}

// MergeMinMax reduces two MinMax by min and by max.
func MergeMinMax(a, b MinMax) MinMax {
	switch {
	case !a.Has:
		return b
	case !b.Has:
		return a
	}
	out := MinMax{Has: true, Min: a.Min, Max: a.Max}
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
// Reduced by MergeMinMax over all ranks they are the global extrema and, per
// boundary, a bracket [a, A] with L(a) <= T <= U(A): every rank holds at
// most floor(T·n/N) keys below a and at least ceil(T·n/N) at or below A.  An
// empty rank offers nothing, a degenerate target (outside (0, N)) is settled
// without a search and gets no bracket.  An embedding that is not lossless
// (strings beyond 16 bytes) maps its upper candidate one point up, where
// FromBits orders at or after every key sharing the candidate's image.
func localSeeds[K any](src Source[K], lossless bool, targets []int64, totalN int64) []MinMax {
	mm := make([]MinMax, len(targets)+1)
	n := src.Len()
	if n == 0 {
		return mm
	}
	mm[0] = MinMax{Has: true, Min: src.At(0), Max: src.At(n - 1)}
	for i, T := range targets {
		if T <= 0 || T >= totalN {
			continue
		}
		lo, hi := seedRanks(T, int64(n), totalN)
		up := src.At(hi - 1)
		if !lossless && up != xmath.MaxU128 {
			up = up.Inc()
		}
		mm[i+1] = MinMax{Has: true, Min: src.At(lo - 1), Max: up}
	}
	return mm
}

// bisectMaxIters caps bisection's rounds as a safety net: it converges
// within the key width, at most the 128-bit embedding plus slack.
const bisectMaxIters = 130

// bisect is the paper's splitter refinement (Algorithm 3) as a ProbeRule:
// k-ary bisection of each boundary's bit-point interval, or a single probe
// placed by ITP (itp.go) on keys with a line to place it on.  points holds the
// bit points of the round's probes, parallel to the keys Refine searches:
// lo narrows past a rejected point, not past its key's image.
type bisect[K any] struct {
	ops     keys.Ops[K]
	k       int
	targets []int64
	tol     int64
	states  []splitterState[K]
	points  []xmath.U128
	line    *itpLine // non-nil: single probes are placed by ITP
}

// Place resolves whatever an open boundary can decide without a histogram
// round and then appends its next probes' keys to dst and their points to
// b.points.  Every rank holds the same states, so every rank places
// identically.  ITP places on key images, so only the midpoints and k-ary
// points below have the following to resolve.
//
// A probe whose key's canonical image ToBits(FromBits(p)) lies below lo is
// a key the boundary already rejected as too low — scalar keys populate
// only the high bits of the 128-bit space, so a midpoint can differ from
// such a key in meaningless low bits alone.  Its verdict is known: lo
// narrows past it here, which bounds the rounds by the significant key bits
// (not the embedding width) and keeps every placed probe strictly above the
// boundary's window floor.  An interval that collapses is accepted at its
// top — nothing representable is left below it.
func (b *bisect[K]) Place(i int, dst []K) []K {
	st := &b.states[i]
	base := len(dst)
	if b.line != nil && !st.done {
		lo, hi, ok := b.line.ends(st.lo, st.hi)
		if !ok || lo >= hi {
			st.done, st.value = true, b.ops.FromBits(st.hi)
			return dst
		}
		p := b.line.point(b.line.probe(&st.itp, lo, hi, b.targets[i]))
		b.points = append(b.points[:base], p)
		return append(dst, b.ops.FromBits(p))
	}
	for !st.done {
		if !st.lo.Less(st.hi) {
			st.done = true
			st.value = b.ops.FromBits(st.hi)
			break
		}
		b.points = placeProbes(st.lo, st.hi, b.k, b.points[:base])
		dst = dst[:base]
		for _, p := range b.points[base:] {
			dst = append(dst, b.ops.FromBits(p))
		}
		// Probes ascend and the canonical image is monotone, so the probes
		// below lo are a prefix.
		below := 0
		for base+below < len(dst) && b.ops.ToBits(dst[base+below]).Less(st.lo) {
			below++
		}
		if below == 0 {
			return dst
		}
		st.lo = b.points[base+below-1].Inc()
	}
	return dst[:base]
}

// Judge applies one round's global counts to boundary i (Algorithm 2).
// Acceptance takes the first probe whose counts bracket the target,
// L - tol <= T <= U + tol: ComputeCuts clamps the realized split point to
// [L, U], so any such probe — an input key or a point in the gap between
// two — hands every rank exactly its share.  Otherwise the counts'
// monotonicity brackets the answer between the largest too-low probe and
// the smallest too-high probe, so every failed probe tightens a bound and
// the round always makes progress.
func (b *bisect[K]) Judge(i, off int, probes []K, global []int64) (low, high int) {
	st := &b.states[i]
	points := b.points[off : off+len(probes)]
	T := b.targets[i]
	low = -1
	for j := range probes {
		L, U := global[2*j], global[2*j+1]
		switch {
		case L-b.tol <= T && T <= U+b.tol:
			st.done = true
			st.value = probes[j]
			return -1, -1
		case U < T:
			// Too few elements at or below the probe: the answer is
			// strictly above it and above its key's canonical image (every
			// key up to that image orders at or before the probe's key).
			// Probes ascend, so the last one wins.
			st.lo = points[j]
			if c := b.ops.ToBits(probes[j]); st.lo.Less(c) {
				st.lo = c
			}
			st.lo = st.lo.Inc()
			st.itp.ua = U
			low = j
		default:
			// Too many strictly below (L - tol > T): the answer is at or
			// below this probe — and every later probe only counts more.
			st.hi = points[j]
			st.itp.lb = L
			return low, j
		}
	}
	return low, -1
}

// Value returns boundary i's splitter: the accepted probe, or the interval
// top when the round cap ran out first.
func (b *bisect[K]) Value(i int) K {
	st := &b.states[i]
	if !st.done {
		return b.ops.FromBits(st.hi)
	}
	return st.value
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
// cfg.Probes <= 1 places one probe per unfinished boundary per round, by
// ITP on scalar keys (at most one round past bisection's bound) and at the
// midpoint otherwise; cfg.Probes > 1 places that many (k-ary refinement).
// The rounds themselves are Refine's.
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
// count totalN its caller already holds, so the same refinement serves the
// resident and the external-memory partition.  Every collective payload and
// cost-model call depends only on element counts and probe bounds, never on
// the backing.
func findSplittersOn[K any](c *comm.Comm, src Source[K], ops keys.Ops[K], targets []int64, totalN, tol int64, cfg Config) ([]K, int) {
	nsplit := len(targets)
	im := keys.ImageOf(ops)

	// One O(log P) reduction (§V-A) finds the global key extrema, mm[0], and
	// boundary i's bracket, mm[i+1].
	mm := localSeeds(src, im.Lossless, targets, totalN)
	if model := c.Model(); model != nil {
		c.Clock().Advance(model.ScanCost(2 * nsplit))
	}
	comm.AllreduceInPlace(c, mm, MergeMinMax)
	if !mm[0].Has {
		// Globally empty input: any splitter values do.
		return make([]K, nsplit), 0
	}

	k := max(cfg.Probes, 1)
	b := &bisect[K]{ops: ops, k: k, targets: targets, tol: tol,
		states: make([]splitterState[K], nsplit), points: make([]xmath.U128, 0, k*nsplit)}
	if k == 1 && im.Width > 0 && im.Suffix == nil {
		b.line = &itpLine{shift: im.Shift, value: im.Value, image: im.FromValue}
	}
	for i := range b.states {
		st := &b.states[i]
		st.lo, st.hi = mm[i+1].Min, mm[i+1].Max
		if b.line != nil {
			b.line.seed(&st.itp, st.lo, st.hi)
		}
		switch {
		case targets[i] <= 0: // degenerate targets need no search
			st.done, st.value = true, ops.FromBits(mm[0].Min)
		case targets[i] >= totalN:
			st.done, st.value = true, ops.FromBits(mm[0].Max)
		}
	}
	return Refine[K](c, src, ops, b, nsplit, bisectMaxIters, cfg)
}

// ProbeRule is where a splitter finder puts its probes: the one thing the
// finders differ in.  Refine owns the rounds; a rule owns its boundaries'
// states, built by its own seed step before Refine starts.  Every rank holds
// the same states and sees the same counts, so every rank places, judges
// and settles identically.
type ProbeRule[K any] interface {
	// Place appends boundary i's ascending probes — at most cfg.Probes
	// (at least one) — to dst and returns the extended slice, or returns
	// dst unchanged when the boundary is settled.  Refine calls it once a
	// round for every boundary that placed probes the round before.
	Place(i int, dst []K) []K
	// Judge narrows boundary i from its probes' reduced counts:
	// global[2j] and global[2j+1] are L and U of probes[j], which sit at
	// offset off of the round's probes.  It returns the index of the last
	// too-low and of the first too-high probe, or -1 for either: their
	// local upper bounds become the floor and the ceiling of the
	// boundary's later searches.  A rule that may re-probe a rejected
	// too-low key returns no floor.
	Judge(i, off int, probes []K, global []int64) (low, high int)
	// Value returns boundary i's splitter, settled or not.
	Value(i int) K
}

// Refine runs the histogram rounds of Algorithm 3 over nsplit boundaries,
// at most maxIters of them, with rule placing and judging the probes: place
// the open boundaries' probes, count (L, U) of each in the local partition,
// price SearchCost(n, 2·np), reduce the counts in one ALLREDUCE, and judge.
// It returns the splitters, ascending (valid splitter ranges for increasing
// targets ascend, but collapsed intervals may break ties), and the number
// of rounds.
//
// Settled boundaries leave the active set, and so the payload: late rounds
// reduce O(active) counters.  Each boundary's probes are searched only
// inside its window, the local bounds of its last too-low and first
// too-high probe: a search costs O(log window), and the window is O(1)
// after ~log2(n/P) rounds.  The searches are independent reads, so they
// fork across the thread budget; the cost model prices every search of the
// round at the paper's full-partition cost.  The round buffers are sized
// once for the worst round and resliced: the loop allocates nothing.
func Refine[K any](c *comm.Comm, src Source[K], ops keys.Ops[K], rule ProbeRule[K], nsplit, maxIters int, cfg Config) ([]K, int) {
	model := c.Model()
	k, threads, n := max(cfg.Probes, 1), cfg.threads(), src.Len()
	if k > 1 {
		cfg.Recorder.SetProbes(k)
	}

	// One allocation holds the active set ids[:na], the probe offsets, the
	// windows and each probe's local upper bound.  The search body and the
	// reduction operator are built once, over buffers it never reassigns: a
	// closure constructed inside the loop would put one allocation back per
	// round.
	idx := make([]int, 4*nsplit+1+k*nsplit)
	ids, offs := idx[:nsplit], idx[nsplit:2*nsplit+1]
	wlo, whi, localU := idx[2*nsplit+1:3*nsplit+1], idx[3*nsplit+1:4*nsplit+1], idx[4*nsplit+1:]
	for i := range ids {
		ids[i], whi[i] = i, n
	}
	probeBuf := make([]K, k*nsplit)
	hist := make([]int64, 2*k*nsplit)
	search := func(ai int) {
		i := ids[ai]
		for pi := offs[ai]; pi < offs[ai+1]; pi++ {
			l, u := src.Bounds(probeBuf[pi], wlo[i], whi[i])
			hist[2*pi], hist[2*pi+1] = int64(l), int64(u)
			localU[pi] = u
		}
	}
	addInt64 := func(a, b int64) int64 { return a + b }
	iters, na := 0, nsplit
	for iters < maxIters {
		// Probe placement (Alg. 3 line 6), compacting settled boundaries
		// out of the active set.
		probes, open := probeBuf[:0], 0
		for _, i := range ids[:na] {
			if probes = rule.Place(i, probes); len(probes) > offs[open] {
				ids[open] = i
				open++
				offs[open] = len(probes)
			}
		}
		if na = open; na == 0 {
			break
		}
		iters++
		cfg.Recorder.AddIteration()
		np := len(probes)

		// Local histogram (Alg. 3 line 7): lower/upper bounds of each probe
		// by binary search in the locally sorted partition.
		workers := searchWorkers(threads, np, n)
		psort.ParallelFor(na, workers, search)
		if model != nil {
			c.Clock().Advance(model.Threaded(model.SearchCost(n, 2*np), workers))
		}

		// Global histogram: one ALLREDUCE over the active probes
		// (Alg. 3 line 8), reduced in place into the round buffer.
		global := comm.AllreduceInPlace(c, hist[:2*np], addInt64)

		for ai, i := range ids[:na] {
			lo, hi := offs[ai], offs[ai+1]
			low, high := rule.Judge(i, lo, probes[lo:hi], global[2*lo:2*hi])
			if low >= 0 {
				wlo[i] = localU[lo+low]
			}
			if high >= 0 {
				whi[i] = localU[lo+high]
			}
		}
	}
	out := make([]K, nsplit)
	for i := range out {
		out[i] = rule.Value(i)
	}
	sortutil.Sort(out, ops.Less)
	return out, iters
}
