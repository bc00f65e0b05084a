// Package hss implements Histogram Sort with Sampling — the Charm++
// algorithm of Harsh, Kale and Solomonik (SPAA'19, reference [1]) that the
// paper benchmarks against in its strong- and weak-scaling studies.
//
// Like the paper's algorithm, HSS refines splitter probes with iterative
// histogramming; unlike it, the probes come from *sampling*: an initial
// oversample seeds the splitter guesses, and subsequent probes interpolate
// the target rank inside the current histogram bounds, assuming ranks vary
// linearly with key values.  On uniform keys this converges in very few
// iterations; on skewed distributions the interpolation assumption breaks
// and convergence turns volatile — the behaviour the paper observed on
// SuperMUC ("their histogramming algorithm again shows high volatility with
// running times from 5-25s", §VI-C; on a normal distribution it failed to
// terminate, §VI-B).
//
// The rounds themselves are core's: the sampled interpolation is a
// core.ProbeRule that core.Refine places and judges, as bisection is.  What
// is HSS's own is the seed step (the gathered sample, the global extrema
// and total), the probe placement, and the half-open acceptance with its
// adjacency protocol.
package hss

import (
	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/keys"
	"dhsort/internal/prng"
	"dhsort/internal/sortutil"
	"dhsort/internal/xmath"
)

// Config seeds the sampled splitter finder for callers outside the sort
// pipeline (FindSplittersSampled).
type Config struct {
	// Seed drives sampling.
	Seed uint64
	// Threads is the intra-rank worker budget of the histogram searches
	// (see core.Config.Threads).  Zero means runtime.GOMAXPROCS(0); set 1
	// for reproducible virtual clocks.
	Threads int
}

const (
	// oversampling is the number of sample keys per rank seeding the
	// initial probes, roughly the constant-per-processor sample of [1].
	oversampling = 16
	// maxIterations caps histogram refinement.  When the cap is hit the
	// current bounds are accepted; balance may then exceed Epsilon,
	// mirroring the non-termination the paper observed.
	maxIterations = 512
)

// Sort sorts the distributed sequence collectively and returns this rank's
// partition.  The supersteps match §III-B: sample, iteratively histogram
// the probe vector, then one ALLTOALLV exchange and a local merge.  cfg is
// the same configuration core.Sort takes; seed drives sampling.
func Sort[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg core.Config, seed uint64) ([]K, error) {
	out, _, err := SortResilient(c, local, ops, cfg, seed)
	return out, err
}

// SortResilient is Sort returning the effective communicator the result
// lives on — c itself, or the shrunken survivor communicator after a
// permanent rank death under Config.Recovery == core.RecoveryShrink (see
// core.SortResilient; the semantics are identical).  HSS runs core's
// superstep pipeline (core.SortWith) with the sampled refinement as its
// splitter finder.
func SortResilient[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg core.Config, seed uint64) ([]K, *comm.Comm, error) {
	if !cfg.ForceUnique {
		return core.SortWith(c, local, ops, cfg, sampled[K](cfg, seed))
	}
	triples := keys.MakeUnique(local, c.Rank())
	out, eff, err := core.SortWith(c, triples, keys.NewTripleOps(ops), cfg, sampled[keys.Triple[K]](cfg, seed))
	if err != nil {
		return nil, eff, err
	}
	return keys.StripUnique(out), eff, nil
}

// FindSplittersSampled is the sampled probe refinement of [1]: quantiles of
// a gathered sample seed the probes, and failed probes are re-aimed by
// linear interpolation of the target rank between the current histogram
// bounds.
func FindSplittersSampled[K any](c *comm.Comm, sorted []K, ops keys.Ops[K], targets []int64, tol int64, cfg Config) []K {
	return sampled[K](core.Config{Threads: cfg.Threads}, cfg.Seed)(c, core.NewMemSource(sorted, ops), ops, targets, 0, tol)
}

// sampled is the sampled refinement as the pipeline's splitter finder,
// over this rank's sorted partition — resident, or a store run under
// MemBudget — and the sort's configuration: the seed step of [1] (a
// gathered sample, the global extrema and the global total, which it
// reduces itself to keep [1]'s message schedule), then core.Refine's rounds
// with the sampled rule.
func sampled[K any](cfg core.Config, seed uint64) core.Finder[K] {
	return func(c *comm.Comm, src core.Source[K], ops keys.Ops[K], targets []int64, _, tol int64) []K {
		nsplit, n := len(targets), src.Len()

		// Sample: each rank contributes oversampling random local keys.
		var sample []K
		if n > 0 {
			rng := prng.NewXoshiro256(seed ^ uint64(c.Rank()+1)*0x9e3779b97f4a7c15)
			sample = make([]K, oversampling)
			for i := range sample {
				sample[i] = src.Key(int(prng.Uint64n(rng, uint64(n))))
			}
		}
		gathered := comm.Allgather(c, sample)
		var pool []K
		for _, b := range gathered {
			pool = append(pool, b...)
		}
		r := &rule[K]{ops: ops, less: ops.Less, k: max(cfg.Probes, 1), targets: targets, tol: tol}
		sortutil.Sort(pool, r.less)
		if len(pool) == 0 {
			return make([]K, nsplit) // globally empty
		}

		// Global extrema and total: one reduction each.
		local := core.MinMax{}
		if n > 0 {
			local = core.MinMax{Has: true, Min: src.At(0), Max: src.At(n - 1)}
		}
		ext := comm.AllreduceOne(c, local, core.MergeMinMax)
		grandTotal := comm.AllreduceOne(c, int64(n), func(a, b int64) int64 { return a + b })

		r.states = make([]state[K], nsplit)
		for i := range r.states {
			st := &r.states[i]
			st.lo, st.hi = ops.FromBits(ext.Min), ops.FromBits(ext.Max)
			st.cntLo, st.cntHi = 0, grandTotal
			// Initial probe: the matching sample quantile.
			idx := int(int64(len(pool)) * targets[i] / max(grandTotal, 1))
			if idx >= len(pool) {
				idx = len(pool) - 1
			}
			st.probe = pool[idx]
			if !ops.Less(st.lo, st.probe) || !ops.Less(st.probe, st.hi) {
				// Quantile outside the open interval: start at the middle.
				st.probe = ops.FromBits(ext.Min.Avg(ext.Max))
			}
			switch {
			case targets[i] <= 0:
				st.done, st.value = true, st.lo
			case targets[i] >= grandTotal:
				st.done, st.value = true, st.hi
			case !ops.Less(st.lo, st.hi):
				// Single distinct value: it is every splitter.
				st.done, st.value = true, st.hi
			case !ops.Less(st.lo, st.probe) || !ops.Less(st.probe, st.hi):
				// Adjacent extrema: probe the lower bound directly.
				st.probe, st.loProbed = st.lo, true
			}
		}
		out, _ := core.Refine[K](c, src, ops, r, nsplit, maxIterations, cfg)
		return out
	}
}

// state is one boundary of the sampled refinement.
type state[K any] struct {
	lo, hi       K     // current bound values: the answer lies in (lo, hi]
	cntLo, cntHi int64 // ranks known at the bounds: L(lo), U(hi)
	probe        K
	loProbed     bool // adjacency protocol: lo itself has been probed
	done         bool
	value        K
}

// rule is the sampled interpolation of [1] as a core.ProbeRule.
type rule[K any] struct {
	ops     keys.Ops[K]
	less    func(a, b K) bool // ops.Less bound once: a method value per call allocates
	k       int
	targets []int64
	tol     int64
	states  []state[K]
}

// Place appends boundary i's probes, ascending: the interpolated primary
// probe of [1], plus up to k-1 evenly spaced auxiliary probes across the
// interval when core.Config.Probes asks for them and the interval is wide
// enough.
func (r *rule[K]) Place(i int, dst []K) []K {
	st := &r.states[i]
	if st.done {
		return dst
	}
	start := len(dst)
	dst = append(dst, st.probe)
	if r.k > 1 && r.less(st.lo, st.probe) && r.less(st.probe, st.hi) {
		loB, hiB := r.ops.ToBits(st.lo), r.ops.ToBits(st.hi)
		pB := r.ops.ToBits(st.probe)
		if step := hiB.Sub(loB).Div64(uint64(r.k)); step != (xmath.U128{}) {
			b := loB
			for j := 1; j < r.k; j++ {
				b = b.Add(step)
				if b == pB {
					continue
				}
				if m := r.ops.FromBits(b); r.less(st.lo, m) && r.less(m, st.hi) {
					dst = append(dst, m)
				}
			}
		}
	}
	sortutil.Sort(dst[start:], r.less)
	return dst
}

// Judge accepts the first probe of boundary i with L - tol < T <= U + tol,
// or narrows (lo, hi] and re-aims the next probe by interpolating the
// target rank between the bounds' counts — the sampling assumption of [1].
// Its adjacency protocol may re-probe a rejected lo, so it sets no window
// floor, only the ceiling.
func (r *rule[K]) Judge(i, _ int, probes []K, global []int64) (low, high int) {
	st := &r.states[i]
	T := r.targets[i]
	high = -1
scan:
	for j := range probes {
		L, U := global[2*j], global[2*j+1]
		switch {
		case L-r.tol < T && T <= U+r.tol:
			st.done, st.value = true, probes[j]
			return -1, -1
		case L >= T:
			// At or below this probe — and every later probe of this
			// boundary only counts more.
			st.hi, st.cntHi = probes[j], U
			high = j
			break scan
		default: // U < T: strictly above; probes ascend, last wins.
			st.lo, st.cntLo = probes[j], L
		}
	}
	frac := 0.5
	if st.cntHi > st.cntLo {
		frac = float64(T-st.cntLo) / float64(st.cntHi-st.cntLo)
	}
	next := r.ops.FromBits(xmath.Lerp(r.ops.ToBits(st.lo), r.ops.ToBits(st.hi), frac))
	if !r.less(st.lo, next) || !r.less(next, st.hi) {
		// Interpolation collapsed onto a bound; try bisection.
		next = r.ops.FromBits(r.ops.ToBits(st.lo).Avg(r.ops.ToBits(st.hi)))
	}
	switch {
	case r.less(st.lo, next) && r.less(next, st.hi):
		st.probe = next
	case !st.loProbed:
		// lo and hi are adjacent representable values: the split point is
		// lo or hi.  Probe lo once; if it fails, hi is the answer.
		st.probe, st.loProbed = st.lo, true
	default:
		st.done, st.value = true, st.hi
	}
	return -1, high
}

// Value returns boundary i's splitter: the accepted probe, or hi when the
// round cap ran out first.
func (r *rule[K]) Value(i int) K {
	st := &r.states[i]
	if !st.done {
		return st.hi
	}
	return st.value
}
