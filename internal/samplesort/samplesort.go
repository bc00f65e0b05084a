// Package samplesort implements the classic sample sort of §III-A — the
// oldest scalable distribution sort and the conceptual ancestor of the
// paper's algorithm — in both its random-oversampling form [9][10] and the
// regular-sampling (PSRS) form of Shi and Schaeffer [12].
//
// Sample sort determines all splitters from a single round of sampling, so
// its load balance is probabilistic: with oversampling factor s each rank
// ends up with O(N/P · (1 + 1/√s)) elements rather than the perfect
// partition the histogram sort guarantees.  The benchmarks use it to show
// what the iterative histogramming buys.
package samplesort

import (
	"fmt"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/prng"
	"dhsort/internal/sortutil"
)

// Variant selects the sampling strategy.
type Variant int

const (
	// RandomSampling draws the oversample uniformly at random (the
	// original Frazer–McKellar scheme).
	RandomSampling Variant = iota
	// RegularSampling probes the locally sorted partition at regular
	// strides (PSRS), which achieves better balance in practice (§III-A).
	RegularSampling
)

// String returns the variant name.
func (v Variant) String() string {
	if v == RegularSampling {
		return "regular"
	}
	return "random"
}

// Config tunes a sample sort.
type Config struct {
	// Variant selects random oversampling or regular sampling.
	Variant Variant
	// Oversampling is the number of samples per rank (s).  0 means 32.
	Oversampling int
	// Seed drives random sampling.
	Seed uint64
	// TieBreak breaks splitter ties by a stable secondary image: keys are
	// lifted to globally unique (key, rank, index) triples before sampling
	// and partitioning, so a heavy-hitter duplicate run (e.g. a flooded
	// value holding half the input) splits across ranks instead of landing
	// on whichever single rank owns the value-only splitter interval — the
	// PGX.D skew fix.  Costs 8 extra bytes per key during the exchange.
	TieBreak bool
	// VirtualScale prices bulk data at a multiple of its real size,
	// matching core.Config.VirtualScale.
	VirtualScale float64
	// Recorder receives phase timings.
	Recorder *metrics.Recorder
}

func (cfg Config) oversampling() int {
	if cfg.Oversampling <= 0 {
		return 32
	}
	return cfg.Oversampling
}

func (cfg Config) scale() float64 {
	if cfg.VirtualScale < 1 {
		return 1
	}
	return cfg.VirtualScale
}

// Sort sorts the distributed sequence collectively and returns this rank's
// partition: superstep 1 samples, superstep 2 picks splitters centrally,
// superstep 3 exchanges data in one ALLTOALLV (§III-A).  The input is not
// modified.  Balance is probabilistic, not perfect.
func Sort[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg Config) ([]K, error) {
	if cfg.Variant != RandomSampling && cfg.Variant != RegularSampling {
		return nil, fmt.Errorf("samplesort: unknown variant %d", int(cfg.Variant))
	}
	if cfg.TieBreak {
		// Lift to globally unique (key, rank, index) triples: every sampled
		// splitter then cuts *inside* a duplicate run, distributing it.
		cfg.Recorder.SetTieBreak()
		triples := keys.MakeUnique(local, c.Rank())
		if model := c.Model(); model != nil {
			c.Clock().Advance(model.ScanCost(int(float64(len(local)) * cfg.scale())))
		}
		out, err := sortImpl(c, triples, keys.NewTripleOps(ops), cfg)
		if err != nil {
			return nil, err
		}
		return keys.StripUnique(out), nil
	}
	return sortImpl(c, local, ops, cfg)
}

// sortImpl runs the three supersteps (separate from Sort so the tie-break
// path can instantiate it on triples without a generic instantiation cycle).
func sortImpl[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg Config) ([]K, error) {
	p := c.Size()
	model := c.Model()
	scale := cfg.scale()
	rec := cfg.Recorder

	// Local sort first (needed by regular sampling and by the partition
	// step's binary searches).
	rec.Enter(metrics.LocalSort)
	sorted := make([]K, len(local))
	copy(sorted, local)
	sortutil.Sort(sorted, ops.Less)
	if model != nil {
		c.Clock().Advance(model.SortCost(int(float64(len(sorted)) * scale)))
	}
	if p == 1 {
		rec.Finish()
		return sorted, nil
	}

	// 1. Sampling: each rank contributes s keys.
	rec.Enter(metrics.Histogram) // splitter determination phase
	s := cfg.oversampling()
	var sample []K
	switch {
	case len(sorted) == 0:
		// Sparse rank: contributes nothing.
	case cfg.Variant == RegularSampling:
		sample = make([]K, 0, s)
		for i := 1; i <= s; i++ {
			idx := i*len(sorted)/(s+1) - 1
			if idx < 0 {
				idx = 0
			}
			sample = append(sample, sorted[idx])
		}
	default:
		src := prng.NewXoshiro256(cfg.Seed ^ uint64(c.Rank()+1)*0x9e3779b97f4a7c15)
		sample = make([]K, s)
		for i := range sample {
			sample[i] = sorted[prng.Uint64n(src, uint64(len(sorted)))]
		}
	}

	// 2. Splitting: a central rank sorts the gathered samples and picks
	// P-1 equidistant splitters, then broadcasts them.
	gathered := comm.Gather(c, 0, sample)
	var splitters []K
	if c.Rank() == 0 {
		var all []K
		for _, b := range gathered {
			all = append(all, b...)
		}
		sortutil.Sort(all, ops.Less)
		if model != nil {
			c.Clock().Advance(model.SortCost(len(all)))
		}
		splitters = make([]K, 0, p-1)
		for i := 1; i < p; i++ {
			if len(all) == 0 {
				break
			}
			idx := i*len(all)/p - 1
			if idx < 0 {
				idx = 0
			}
			splitters = append(splitters, all[idx])
		}
	}
	splitters = comm.Bcast(c, 0, splitters)

	// 3. Data exchange: partition the sorted run by the splitters and
	// exchange in a single ALLTOALLV.
	rec.Enter(metrics.Other)
	sendCounts := make([]int, p)
	if len(splitters) == 0 {
		// Globally empty sample (all ranks empty): nothing moves.
		sendCounts[0] = len(sorted)
	} else {
		prev := 0
		for d := 0; d < p-1; d++ {
			cut := sortutil.UpperBound(sorted, splitters[d], ops.Less)
			if cut < prev {
				cut = prev
			}
			sendCounts[d] = cut - prev
			prev = cut
		}
		sendCounts[p-1] = len(sorted) - prev
	}
	if model != nil {
		c.Clock().Advance(model.SearchCost(len(sorted), p-1))
	}
	rec.Enter(metrics.Exchange)
	recv, recvCounts := comm.AlltoallvWith(c, sorted, sendCounts, comm.AlltoallPairwise, scale)

	// Merge the received runs (binary merge tree).
	rec.Enter(metrics.Merge)
	runs := make([][]K, 0, p)
	off := 0
	for _, n := range recvCounts {
		if n > 0 {
			runs = append(runs, recv[off:off+n])
		}
		off += n
	}
	out := sortutil.MergeKBinary(runs, ops.Less)
	if model != nil {
		c.Clock().Advance(model.MergeCost(int(float64(len(recv))*scale), len(runs)))
	}
	rec.Finish()
	return out, nil
}
