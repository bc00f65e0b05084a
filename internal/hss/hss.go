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
package hss

import (
	"runtime"

	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/prng"
	"dhsort/internal/psort"
	"dhsort/internal/sortutil"
	"dhsort/internal/xmath"
)

// Config tunes the sampled splitter finder.  A sort takes core.Config; this
// is the part of it the finder reads, plus the sampling seed.
type Config struct {
	// Seed drives sampling.
	Seed uint64
	// Probes is the number of histogram probes per unfinished splitter per
	// round (see core.Config.Probes).  The primary probe stays the
	// interpolated guess of [1]; k > 1 adds up to k-1 evenly spaced
	// auxiliary probes across the current interval, which keeps bracketing
	// progress even when the linear-interpolation assumption breaks on
	// skewed keys.  0 or 1 keeps the original single-probe refinement.
	Probes int
	// Threads is the intra-rank worker budget of the histogram searches
	// (see core.Config.Threads).  Zero means runtime.GOMAXPROCS(0); set 1
	// for reproducible virtual clocks.
	Threads int
	// Recorder receives iteration counts.
	Recorder *metrics.Recorder
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

func (cfg Config) probes() int {
	return max(cfg.Probes, 1)
}

// threads returns the effective intra-rank worker budget.
func (cfg Config) threads() int {
	if cfg.Threads <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return cfg.Threads
}

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
// splitter finder; core.Config.Warm, SplitterSink and MaxIterations belong
// to core's bisection and are not read.
func SortResilient[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg core.Config, seed uint64) ([]K, *comm.Comm, error) {
	fcfg := Config{Seed: seed, Probes: cfg.Probes, Threads: cfg.Threads, Recorder: cfg.Recorder}
	if !cfg.ForceUnique {
		return core.SortWith(c, local, ops, cfg, sampled[K](fcfg))
	}
	triples := keys.MakeUnique(local, c.Rank())
	out, eff, err := core.SortWith(c, triples, keys.NewTripleOps(ops), cfg, sampled[keys.Triple[K]](fcfg))
	if err != nil {
		return nil, eff, err
	}
	return keys.StripUnique(out), eff, nil
}

// sampled is the sampled refinement as the pipeline's splitter finder.  It
// reduces its own global total rather than take the pipeline's, keeping the
// message schedule of [1].
func sampled[K any](cfg Config) core.Finder[K] {
	return func(c *comm.Comm, src core.Source[K], ops keys.Ops[K], targets []int64, _, tol int64) []K {
		return findSplitters(c, src, ops, targets, tol, cfg)
	}
}

// FindSplittersSampled is the sampled probe refinement of [1]: quantiles of
// a gathered sample seed the probes, and failed probes are re-aimed by
// linear interpolation of the target rank between the current histogram
// bounds.
func FindSplittersSampled[K any](c *comm.Comm, sorted []K, ops keys.Ops[K], targets []int64, tol int64, cfg Config) []K {
	return findSplitters(c, core.NewMemSource(sorted, ops), ops, targets, tol, cfg)
}

// findSplitters is FindSplittersSampled over this rank's sorted partition
// as a core.Source: resident, or a store run under MemBudget.
func findSplitters[K any](c *comm.Comm, src core.Source[K], ops keys.Ops[K], targets []int64, tol int64, cfg Config) []K {
	nsplit := len(targets)
	model := c.Model()
	n := src.Len()

	// Sample: each rank contributes s random local keys.
	s := oversampling
	var sample []K
	if n > 0 {
		rng := prng.NewXoshiro256(cfg.Seed ^ uint64(c.Rank()+1)*0x9e3779b97f4a7c15)
		sample = make([]K, s)
		for i := range sample {
			sample[i] = src.Key(int(prng.Uint64n(rng, uint64(n))))
		}
	}
	gathered := comm.Allgather(c, sample)
	var pool []K
	for _, b := range gathered {
		pool = append(pool, b...)
	}
	sortutil.Sort(pool, ops.Less)
	if len(pool) == 0 {
		return make([]K, nsplit) // globally empty
	}

	type state struct {
		lo, hi       K     // current bound values: the answer lies in (lo, hi]
		cntLo, cntHi int64 // ranks known at the bounds: L(lo), U(hi)
		probe        K
		loProbed     bool // adjacency protocol: lo itself has been probed
		done         bool
		value        K
	}
	// Global extrema and total: one reduction, as in core.
	type mm struct {
		Has      bool
		Min, Max xmath.U128
	}
	localMM := mm{}
	if n > 0 {
		localMM = mm{true, src.At(0), src.At(n - 1)}
	}
	ext := comm.AllreduceOne(c, localMM, func(a, b mm) mm {
		switch {
		case !a.Has:
			return b
		case !b.Has:
			return a
		}
		out := mm{Has: true, Min: a.Min, Max: a.Max}
		if b.Min.Less(out.Min) {
			out.Min = b.Min
		}
		if out.Max.Less(b.Max) {
			out.Max = b.Max
		}
		return out
	})
	grandTotal := comm.AllreduceOne(c, int64(n), func(a, b int64) int64 { return a + b })

	states := make([]state, nsplit)
	for i := range states {
		st := &states[i]
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

	k := cfg.probes()
	if k > 1 {
		cfg.Recorder.SetProbes(k)
	}
	hist := make([]int64, 0, 2*k*nsplit)
	probeVals := make([]K, 0, k*nsplit)
	offs := make([]int, 0, nsplit+1)
	for iter := 0; iter < maxIterations; iter++ {
		var active []int
		for i := range states {
			if !states[i].done {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			break
		}
		cfg.Recorder.AddIteration()

		// Probe vector: the interpolated primary probe of [1], plus up to
		// k-1 evenly spaced auxiliary probes across the interval when
		// cfg.Probes asks for them and the interval is wide enough.  Each
		// boundary's probes are sorted ascending so the histogram counts
		// can bracket the answer in a single scan.
		probeVals = probeVals[:0]
		offs = append(offs[:0], 0)
		for _, i := range active {
			st := &states[i]
			start := len(probeVals)
			probeVals = append(probeVals, st.probe)
			if k > 1 && ops.Less(st.lo, st.probe) && ops.Less(st.probe, st.hi) {
				loB, hiB := ops.ToBits(st.lo), ops.ToBits(st.hi)
				pB := ops.ToBits(st.probe)
				if step := hiB.Sub(loB).Div64(uint64(k)); step != (xmath.U128{}) {
					b := loB
					for j := 1; j < k; j++ {
						b = b.Add(step)
						if b == pB {
							continue
						}
						if m := ops.FromBits(b); ops.Less(st.lo, m) && ops.Less(m, st.hi) {
							probeVals = append(probeVals, m)
						}
					}
				}
			}
			sortutil.Sort(probeVals[start:], ops.Less)
			offs = append(offs, len(probeVals))
		}
		np := len(probeVals)

		// The per-probe searches are independent reads of the sorted
		// partition; fork them across the thread budget like core does.
		hist = append(hist[:0], make([]int64, 2*np)...)
		workers := 1
		if t := cfg.threads(); t > 1 && np >= 2 && n >= 4096 {
			workers = t
			if workers > np {
				workers = np
			}
		}
		psort.ParallelFor(np, workers, func(pi int) {
			l, u := src.Bounds(probeVals[pi], 0, n)
			hist[2*pi], hist[2*pi+1] = int64(l), int64(u)
		})
		if model != nil {
			c.Clock().Advance(model.Threaded(model.SearchCost(n, 2*np), workers))
		}
		global := comm.Allreduce(c, hist, func(a, b int64) int64 { return a + b })

		for ai, i := range active {
			st := &states[i]
			T := targets[i]
		scan:
			for j := offs[ai]; j < offs[ai+1]; j++ {
				L, U := global[2*j], global[2*j+1]
				switch {
				case L-tol < T && T <= U+tol:
					st.done, st.value = true, probeVals[j]
					break scan
				case L >= T:
					// At or below this probe — and every later probe of
					// this boundary only counts more.
					st.hi, st.cntHi = probeVals[j], U
					break scan
				default: // U < T: strictly above; probes ascend, last wins.
					st.lo, st.cntLo = probeVals[j], L
				}
			}
			if st.done {
				continue
			}
			// Re-aim by interpolating the target rank between the bounds
			// — the sampling assumption of [1].
			frac := 0.5
			if st.cntHi > st.cntLo {
				frac = float64(T-st.cntLo) / float64(st.cntHi-st.cntLo)
			}
			next := ops.FromBits(xmath.Lerp(ops.ToBits(st.lo), ops.ToBits(st.hi), frac))
			if !ops.Less(st.lo, next) || !ops.Less(next, st.hi) {
				// Interpolation collapsed onto a bound; try bisection.
				next = ops.FromBits(ops.ToBits(st.lo).Avg(ops.ToBits(st.hi)))
			}
			switch {
			case ops.Less(st.lo, next) && ops.Less(next, st.hi):
				st.probe = next
			case !st.loProbed:
				// lo and hi are adjacent representable values: the split
				// point is lo or hi.  Probe lo once; if it fails, hi is
				// the answer.
				st.probe, st.loProbed = st.lo, true
			default:
				st.done, st.value = true, st.hi
			}
		}
	}
	out := make([]K, nsplit)
	for i := range states {
		st := &states[i]
		if !st.done {
			st.value = st.hi
		}
		out[i] = st.value
	}
	sortutil.Sort(out, ops.Less)
	return out
}
