package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/sortutil"
	"dhsort/internal/workload"
)

// splitPhase runs the Splitting superstep and the cut computation on p ranks
// at ε = 0 — gen(rank) is a rank's unsorted share, its length the rank's
// capacity — and checks what every caller relies on: each splitter's global
// counts bracket its target, L <= T <= U (Definition 4's count interval,
// closed at L), and FindSplitters -> ComputeCuts hands every rank exactly
// its capacity.  It returns the splitters and the round count, both
// identical on every rank.
func splitPhase[K any](t *testing.T, p int, gen func(rank int) []K, ops keys.Ops[K], cfg Config) ([]K, int) {
	t.Helper()
	w, err := comm.NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	add := func(a, b int64) int64 { return a + b }
	var mu sync.Mutex
	var splitters []K
	iters := -1
	err = w.Run(func(c *comm.Comm) error {
		local := gen(c.Rank())
		sortutil.Sort(local, ops.Less)
		capacities := comm.AllgatherOne(c, int64(len(local)))
		targets := make([]int64, p-1)
		var acc int64
		for i := range targets {
			acc += capacities[i]
			targets[i] = acc
		}
		sp, n := FindSplitters(c, local, ops, targets, 0, cfg)
		hist := make([]int64, 0, 2*len(sp))
		for _, s := range sp {
			hist = append(hist,
				int64(sortutil.LowerBound(local, s, ops.Less)),
				int64(sortutil.UpperBound(local, s, ops.Less)))
		}
		global := comm.Allreduce(c, hist, add)
		cuts := ComputeCuts(c, local, ops, sp, targets, cfg)
		sent := make([]int64, p)
		for d := range sent {
			sent[d] = int64(cuts[d+1] - cuts[d])
		}
		received := comm.Allreduce(c, sent, add)

		mu.Lock()
		defer mu.Unlock()
		if iters == -1 {
			splitters, iters = sp, n
		} else if iters != n {
			t.Errorf("iteration counts diverge across ranks: %d vs %d", iters, n)
		}
		if c.Rank() != 0 {
			return nil
		}
		for i, T := range targets {
			if L, U := global[2*i], global[2*i+1]; !(L <= T && T <= U) {
				t.Errorf("splitter %d: L=%d T=%d U=%d do not bracket the target", i, L, T, U)
			}
		}
		for d, got := range received {
			if got != capacities[d] {
				t.Errorf("rank %d is handed %d keys, capacity %d", d, got, capacities[d])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return splitters, iters
}

// iterationCount runs only the splitter phase and reports the iteration
// count (identical on all ranks) — the §V-A experiment.
func iterationCount[K any](t *testing.T, p, perRank int, gen func(r, i int) K, ops keys.Ops[K]) int {
	return iterationCountCfg(t, p, perRank, gen, ops, Config{})
}

// iterationCountCfg is iterationCount under an explicit configuration, for
// the k-ary probing ablations.
func iterationCountCfg[K any](t *testing.T, p, perRank int, gen func(r, i int) K, ops keys.Ops[K], cfg Config) int {
	t.Helper()
	_, iters := splitPhase(t, p, func(r int) []K {
		local := make([]K, perRank)
		for i := range local {
			local[i] = gen(r, i)
		}
		return local
	}, ops, cfg)
	return iters
}

// rankPartitioned deals the sorted sequence of the p·perRank keys gen makes
// out slice by slice: rank r holds the r-th.  The local quantiles of the
// first and the last rank then bracket nearly the whole key range, so the
// refinement is the cold bisection of the paper round for round — the cold
// baseline as an input, not as a knob.
func rankPartitioned[K any](p, perRank int, gen func(g int) K, ops keys.Ops[K]) func(rank int) []K {
	all := make([]K, p*perRank)
	for g := range all {
		all[g] = gen(g)
	}
	sortutil.Sort(all, ops.Less)
	return func(rank int) []K {
		return append([]K(nil), all[rank*perRank:(rank+1)*perRank]...)
	}
}

// denseMiddle is the worst case of the bound: the first rank's keys sit at
// the bottom of the 64-bit range, the last rank's at its top, and every key
// between them is one of consecutive integers in the middle — no gap for a
// probe to fall into, and a bracket as wide as the key space.
func denseMiddle(p, perRank int) func(g int) uint64 {
	return func(g int) uint64 {
		switch {
		case g < perRank:
			return uint64(g)
		case g >= (p-1)*perRank:
			return ^uint64(0) - uint64(p*perRank-g)
		}
		return 1<<63 + uint64(g)
	}
}

func TestIterationCountsBoundedByKeyWidth(t *testing.T) {
	// §V-A: "With normally and uniformly distributed keys the number of
	// iterations is bound by the key size ... 64-bit floating point
	// numbers ... 60-64 iterations.  Sorting 32-bit floats can be
	// accomplished in 25-35 iterations."  The bound is the number of
	// significant key bits plus one.  How much of it a run pays depends on
	// the data: a boundary starts from the bracket its ranks' local quantiles
	// span and is done as soon as a probe falls into the gap between the keys
	// on either side of its target.  A rank-partitioned input makes every
	// bracket as wide as the key range, which is where the bound is pinned.
	const p, perRank = 8, 512
	src := func(g int) uint64 {
		x := uint64(g) * 0x9e3779b97f4a7c15
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		return x
	}
	_, full64 := splitPhase(t, p, rankPartitioned(p, perRank, src, keys.Uint64{}), keys.Uint64{}, Config{})
	if full64 > 65 {
		t.Errorf("full-range 64-bit keys took %d iterations, want <= 65", full64)
	}
	_, narrow32 := splitPhase(t, p, rankPartitioned(p, perRank, func(g int) uint32 { return uint32(src(g)) }, keys.Uint32{}), keys.Uint32{}, Config{})
	if narrow32 > 33 {
		t.Errorf("32-bit keys took %d iterations, want <= 33", narrow32)
	}
	_, f32 := splitPhase(t, p, rankPartitioned(p, perRank, func(g int) float32 {
		return float32(src(g)%1e6) / 7.0
	}, keys.Float32{}), keys.Float32{}, Config{})
	if f32 > 33 {
		t.Errorf("32-bit float keys took %d iterations, want <= 33", f32)
	}
	// Consecutive integers leave no gap to fall into: every boundary has to
	// be bisected from the whole range down to one key, which is where the
	// bound is reached.
	_, dense := splitPhase(t, p, rankPartitioned(p, perRank, denseMiddle(p, perRank), keys.Uint64{}), keys.Uint64{}, Config{})
	if dense < 60 || dense > 65 {
		t.Errorf("dense keys in a 64-bit range took %d iterations, want 60-65", dense)
	}
}

func TestSeededBracketsCutRoundCounts(t *testing.T) {
	// The other end of the scale: what the seeded brackets leave of the
	// bound when the ranks' local quantiles agree.
	dense := func(r, i int) uint64 { return 1<<63 + uint64(i*8+r) }
	if n := iterationCount(t, 8, 512, dense, keys.Uint64{}); n > 4 {
		t.Errorf("dense consecutive integers dealt round-robin took %d rounds, want <= 4", n)
	}
	// One rank: both candidates of a boundary are the answer itself.
	if n := iterationCount(t, 1, 4096, func(_, i int) uint64 { return 1<<63 + uint64(i) }, keys.Uint64{}); n != 0 {
		t.Errorf("a one-rank world took %d rounds, want 0", n)
	}
	w, _ := comm.NewWorld(1, nil)
	err := w.Run(func(c *comm.Comm) error {
		local := make([]uint64, 4096)
		for i := range local {
			local[i] = uint64(i) * 3
		}
		sp, n := FindSplitters(c, local, keys.Uint64{}, []int64{1, 1024, 4095}, 0, Config{})
		if n != 0 || sp[0] != 0 || sp[1] != 1023*3 || sp[2] != 4094*3 {
			t.Errorf("one rank, targets 1/1024/4095: splitters %v after %d rounds, want keys 0, 3069, 12282 after 0", sp, n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKaryProbingCutsRoundCount(t *testing.T) {
	// k-ary refinement drops the round count from log2(range) to
	// log_{k+1}(range): on full-range 64-bit keys, 8 probes per boundary
	// must finish in at most 45% of the bisection rounds
	// (log_9(2^64) ≈ 20 vs 60-64).
	src := func(r, i int) uint64 {
		x := uint64(r)*2654435761 + uint64(i)*0x9e3779b97f4a7c15
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		return x
	}
	gen := func(r, i int) uint64 { return src(r, i) }
	bisect := iterationCountCfg(t, 8, 512, gen, keys.Uint64{}, Config{Probes: 1})
	k8 := iterationCountCfg(t, 8, 512, gen, keys.Uint64{}, Config{Probes: 8})
	if limit := (bisect*45 + 99) / 100; k8 > limit {
		t.Errorf("probes=8 took %d rounds, want <= 45%% of the %d bisection rounds (%d)", k8, bisect, limit)
	}
	k4 := iterationCountCfg(t, 8, 512, gen, keys.Uint64{}, Config{Probes: 4})
	if k4 >= bisect || k8 >= k4 {
		t.Errorf("round counts not monotone in probe count: k=1 %d, k=4 %d, k=8 %d", bisect, k4, k8)
	}
}

func TestProbesOneMatchesBisection(t *testing.T) {
	// Probes <= 1 must reproduce the original bisection exactly — same
	// rounds, same splitters — so default-configured runs are unchanged.
	gen := func(r, i int) uint64 {
		x := uint64(r)*7919 + uint64(i)*104729
		return (x * 0x9e3779b97f4a7c15) % 1000000001
	}
	base := iterationCount(t, 8, 512, gen, keys.Uint64{})
	one := iterationCountCfg(t, 8, 512, gen, keys.Uint64{}, Config{Probes: 1})
	if base != one {
		t.Errorf("Probes=1 took %d rounds, default bisection %d", one, base)
	}
}

func TestIterationCountsIndependentOfP(t *testing.T) {
	// §V-A: "The number of processors does not impact the number of
	// iterations."  That is a statement about the bisection from the whole
	// key range, which a rank-partitioned input reproduces; how far the
	// seeded brackets undercut it does depend on P (the more ranks, the more
	// local quantiles a bracket has to span).
	gen := func(g int) uint64 {
		x := uint64(g) * 0x9e3779b97f4a7c15
		return x % 1000000007 // the paper's [0, 1e9] span
	}
	var counts []int
	for _, p := range []int{2, 4, 8, 16} {
		_, n := splitPhase(t, p, rankPartitioned(p, 256, gen, keys.Uint64{}), keys.Uint64{}, Config{})
		counts = append(counts, n)
	}
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 8 {
		t.Errorf("iteration counts vary too much with P: %v", counts)
	}
	if max > 31 {
		t.Errorf("keys in [0, 1e9] took %v iterations, want <= 31 (30 significant bits + 1)", counts)
	}
}

func TestIterationCountNarrowSpan(t *testing.T) {
	// Keys in [0, 1e9]: the splitter interval spans ~2^30, so roughly 30
	// iterations suffice (§VI-B: "takes ~30 iterations").
	gen := func(r, i int) uint64 {
		x := uint64(r)*7919 + uint64(i)*104729
		return (x * 0x9e3779b97f4a7c15) % 1000000001
	}
	n := iterationCount(t, 8, 512, gen, keys.Uint64{})
	if n > 36 {
		t.Errorf("[0,1e9] keys took %d iterations, want ~30", n)
	}
}

func TestSplittersHitTargets(t *testing.T) {
	// The count interval and the exact hand-out (see splitPhase), for every
	// key type — the six scalars search their uint64 images, Pair and
	// Triple search under Less — on every input shape that stresses the
	// acceptance rule: wide gaps, clustered keys, heavy duplicates, a
	// flooded value, one value only, and ranks that contribute nothing.
	// Capacities are uneven so no target sits on a round number.
	shapes := []workload.Spec{
		{Dist: workload.Uniform, Span: 1e9},
		{Dist: workload.Normal},
		{Dist: workload.Zipf, Span: 1e9},
		{Dist: workload.DuplicateFlood, Span: 1e9},
		{Dist: workload.AllEqual, Span: 1e9},
		{Dist: workload.Uniform, Span: 1e9, Sparse: 3},
	}
	for _, p := range []int{2, 5, 16, 64} {
		for si, spec := range shapes {
			spec.Seed = uint64(100*p + si)
			raw := func(r int) []uint64 {
				ks, _ := spec.Rank(r, 90+(r*7)%5)
				return ks
			}
			t.Run(fmt.Sprintf("p%d/%s-%d", p, spec.Dist, si), func(t *testing.T) {
				splitPhase(t, p, raw, keys.Uint64{}, Config{})
				splitPhase(t, p, mapKeys(raw, func(k uint64) int64 { return int64(k) }), keys.Int64{}, Config{})
				splitPhase(t, p, mapKeys(raw, func(k uint64) float64 { return float64(int64(k)) }), keys.Float64{}, Config{})
				splitPhase(t, p, mapKeys(raw, func(k uint64) uint32 { return uint32(k) }), keys.Uint32{}, Config{})
				splitPhase(t, p, mapKeys(raw, func(k uint64) int32 { return int32(uint32(k)) }), keys.Int32{}, Config{})
				splitPhase(t, p, mapKeys(raw, func(k uint64) float32 { return float32(int32(uint32(k))) }), keys.Float32{}, Config{})
				splitPhase(t, p, mapKeys(raw, func(k uint64) keys.Pair[uint64, uint32] {
					return keys.Pair[uint64, uint32]{Key: k, Val: uint32(k)}
				}), keys.NewPairOps[uint64, uint32](keys.Uint64{}), Config{})
				splitPhase(t, p, func(r int) []keys.Triple[uint64] { return keys.MakeUnique(raw(r), r) },
					keys.NewTripleOps[uint64](keys.Uint64{}), Config{})
			})
		}
	}
}

// mapKeys lifts a uint64 workload generator to another key type.
func mapKeys[K any](raw func(rank int) []uint64, conv func(uint64) K) func(rank int) []K {
	return func(rank int) []K {
		ks := raw(rank)
		out := make([]K, len(ks))
		for i, k := range ks {
			out[i] = conv(k)
		}
		return out
	}
}

func TestRoundCountsAtLatencyShape(t *testing.T) {
	// P=64, 1,024 keys per rank: the regime where rounds x collective
	// latency is the sort.  A boundary starts from the bracket of its ranks'
	// local quantiles and is done once a probe falls between the keys around
	// its target, so the count is ~log2 of bracket over gap, not the key
	// width (the strict L < T rule paid 63-64 on the first four rows; in
	// parentheses the counts from the global range, before the brackets).
	const p, perRank, seed = 64, 1024, 1
	raw := func(spec workload.Spec) func(int) []uint64 {
		spec.Seed = seed
		return func(r int) []uint64 {
			ks, _ := spec.Rank(r, perRank)
			return ks
		}
	}
	floats := func(spec workload.Spec) func(int) []float64 {
		return func(r int) []float64 { return workload.Floats(raw(spec)(r)) }
	}
	pin := func(name string, got, lo, hi int) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s: %d rounds, want %d-%d", name, got, lo, hi)
		}
	}
	normal, uniform := workload.Spec{Dist: workload.Normal}, workload.Spec{Dist: workload.Uniform}
	_, n := splitPhase(t, p, floats(normal), keys.Float64{}, Config{})
	pin("float64 normal", n, 1, 24) // measured 23 (34 from the global range)
	_, n = splitPhase(t, p, floats(uniform), keys.Float64{}, Config{})
	pin("float64 uniform", n, 1, 30) // 28 (29): the bracket around 0.0 spans every small exponent
	_, n = splitPhase(t, p, raw(normal), keys.Uint64{}, Config{})
	pin("uint64 normal", n, 1, 23) // 21 (26)
	_, n = splitPhase(t, p, raw(uniform), keys.Uint64{}, Config{})
	pin("uint64 uniform", n, 1, 21) // 19 (23)

	// Heavy duplicates in a 30-bit span: the last boundaries' answer is the
	// duplicated global maximum, which is never probed itself.  Reaching it
	// used to walk the 64 low bits of the embedding that scalar keys leave
	// empty, re-probing the key below it every round (93 rounds on uint64,
	// 83 on float64); bisect.Place skips those probes locally, so the
	// significant key bits bound the rounds again.
	zipf := workload.Spec{Dist: workload.Zipf, Span: 1e9}
	_, n = splitPhase(t, p, raw(zipf), keys.Uint64{}, Config{})
	pin("uint64 zipf", n, 1, 31) // 30 (30)
	_, n = splitPhase(t, p, floats(zipf), keys.Float64{}, Config{})
	pin("float64 zipf", n, 1, 21) // 20 (20)
	_, n = splitPhase(t, p, raw(workload.Spec{Dist: workload.DuplicateHeavy, Span: 1e9}), keys.Uint64{}, Config{})
	pin("uint64 duplicate-heavy", n, 1, 28) // 26 (30)
	_, n = splitPhase(t, p, raw(workload.Spec{Dist: workload.AllEqual, Span: 1e9}), keys.Uint64{}, Config{})
	pin("uint64 all-equal", n, 0, 0) // every bracket is one point: nothing to refine

	// Triple keys do populate the low bits — equal keys are told apart by
	// their (rank, index) suffix — so nothing is skipped for them and the
	// duplicate runs are still bisected in the suffix, past 64 rounds.
	_, n = splitPhase(t, p, func(r int) []keys.Triple[uint64] { return keys.MakeUnique(raw(zipf)(r), r) },
		keys.NewTripleOps[uint64](keys.Uint64{}), Config{})
	pin("triple zipf", n, 65, 128) // 87 (92)
}

func TestRoundCountsAtServiceShape(t *testing.T) {
	// P=8, 8,192 uniform uint64 keys per rank in a 1e9 span: a 65,536-key
	// generated job at the sort service's default P.  Every rank draws from one
	// distribution, so the brackets of the ranks' local quantiles alone start
	// each boundary close to its answer: measured 13 rounds (10-14 over seeds
	// 1-8), against up to the 30 significant key bits from the global range.
	const p, perRank = 8, 8192
	spec := workload.Spec{Dist: workload.Uniform, Seed: 1, Span: 1e9}
	_, n := splitPhase(t, p, func(r int) []uint64 {
		ks, _ := spec.Rank(r, perRank)
		return ks
	}, keys.Uint64{}, Config{})
	if n < 1 || n > 14 {
		t.Errorf("uint64 uniform at P=%d, %d keys a rank: %d rounds, want 1-14", p, perRank, n)
	}
}

func TestSplittersMonotone(t *testing.T) {
	p := 9
	w, _ := comm.NewWorld(p, nil)
	err := w.Run(func(c *comm.Comm) error {
		spec := workload.Spec{Dist: workload.Zipf, Seed: 56, Span: 1e9}
		raw, _ := spec.Rank(c.Rank(), 300)
		local := keys.MakeUnique(raw, c.Rank())
		ops := keys.NewTripleOps[uint64](keys.Uint64{})
		sortutil.Sort(local, ops.Less)
		targets := make([]int64, p-1)
		for i := range targets {
			targets[i] = int64((i + 1) * 300)
		}
		splitters, _ := FindSplitters(c, local, ops, targets, 0, Config{})
		for i := 1; i < len(splitters); i++ {
			if ops.Less(splitters[i], splitters[i-1]) {
				t.Errorf("splitters not monotone at %d", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplittersEmptyWorld(t *testing.T) {
	w, _ := comm.NewWorld(3, nil)
	err := w.Run(func(c *comm.Comm) error {
		splitters, iters := FindSplitters[uint64](c, nil, keys.Uint64{}, []int64{0, 0}, 0, Config{})
		if len(splitters) != 2 || iters != 0 {
			t.Errorf("empty input: %d splitters, %d iters", len(splitters), iters)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecorderCapturesPhasesAndIterations(t *testing.T) {
	model := simnet.SuperMUC(4, true)
	w, _ := comm.NewWorld(8, model)
	recs := make([]*metrics.Recorder, 8)
	var mu sync.Mutex
	err := w.Run(func(c *comm.Comm) error {
		spec := workload.Spec{Dist: workload.Uniform, Seed: 60, Span: 1e9}
		local, _ := spec.Rank(c.Rank(), 2000)
		rec := metrics.ForComm(c)
		_, err := Sort(c, local, u64, Config{Recorder: rec})
		mu.Lock()
		recs[c.Rank()] = rec
		mu.Unlock()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s := metrics.Summarize(recs)
	// With the uniqueness triples, a boundary that falls between two
	// equal keys resolves through the 64-bit suffix, so the bound is the
	// 128-bit embedding width rather than the key width.
	if s.MaxIterations < 5 || s.MaxIterations > 128 {
		t.Errorf("iterations = %d", s.MaxIterations)
	}
	for _, p := range []metrics.Phase{metrics.LocalSort, metrics.Histogram, metrics.Exchange, metrics.Merge} {
		if s.Times[p] <= 0 {
			t.Errorf("phase %v has no recorded time", p)
		}
	}
	if s.ExchangedBytes <= 0 {
		t.Error("no exchange volume recorded")
	}
	if math.Abs(1-s.Fraction(metrics.LocalSort)-s.Fraction(metrics.Histogram)-
		s.Fraction(metrics.Exchange)-s.Fraction(metrics.Merge)-s.Fraction(metrics.Other)) > 1e-9 {
		t.Error("fractions do not sum to 1")
	}
}

// BenchmarkFindSplittersP64 is the Splitting superstep at the sort-latency
// shape — 64 ranks, 1,024 normal float64 keys each, on a persistent world —
// for paired runs against a parent commit (go test -c, alternate the
// binaries, same -cpu).
func BenchmarkFindSplittersP64(b *testing.B) {
	const p, perRank = 64, 1024
	ops := keys.Float64{}
	locals := make([][]float64, p)
	targets := make([]int64, p-1)
	for r := range locals {
		ks, _ := workload.Spec{Dist: workload.Normal, Seed: 1}.Rank(r, perRank)
		locals[r] = workload.Floats(ks)
		sortutil.Sort(locals[r], ops.Less)
		if r < p-1 {
			targets[r] = int64((r + 1) * perRank)
		}
	}
	pw, err := comm.NewPersistentWorld(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer pw.Close()
	var rounds int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := pw.Execute(func(c *comm.Comm) error {
			_, n := FindSplitters(c, locals[c.Rank()], ops, targets, 0, Config{})
			if c.Rank() == 0 {
				rounds = n
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(opMessages(pw)), "msgs")
	b.ReportMetric(float64(rounds), "rounds")
}

// opMessages is the message count of the last job on pw without the
// dissemination barrier Execute closes every job with.
func opMessages(pw *comm.PersistentWorld) int64 {
	st := pw.TotalStats()
	p := pw.Size()
	return st.TotalMessages() - int64(p*bits.Len(uint(p-1)))
}

// BenchmarkComputeCutsP64 is the permutation-matrix superstep at the same
// shape — the two ALLTOALL rounds of one or two counters per peer — from the
// splitters a FindSplitters call converged to.
func BenchmarkComputeCutsP64(b *testing.B) {
	const p, perRank = 64, 1024
	ops := keys.Float64{}
	locals := make([][]float64, p)
	targets := make([]int64, p-1)
	for r := range locals {
		ks, _ := workload.Spec{Dist: workload.Normal, Seed: 1}.Rank(r, perRank)
		locals[r] = workload.Floats(ks)
		sortutil.Sort(locals[r], ops.Less)
		if r < p-1 {
			targets[r] = int64((r + 1) * perRank)
		}
	}
	pw, err := comm.NewPersistentWorld(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer pw.Close()
	splitters := make([][]float64, p)
	err = pw.Execute(func(c *comm.Comm) error {
		splitters[c.Rank()], _ = FindSplitters(c, locals[c.Rank()], ops, targets, 0, Config{})
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := pw.Execute(func(c *comm.Comm) error {
			cuts := ComputeCuts(c, locals[c.Rank()], ops, splitters[c.Rank()], targets, Config{})
			if got := cuts[c.Rank()+1] - cuts[c.Rank()]; got < 0 || cuts[p] != perRank {
				b.Errorf("rank %d: cuts %v", c.Rank(), cuts)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(opMessages(pw)), "msgs")
	b.ReportMetric(float64(opMessages(pw))/p, "rounds") // messages per rank: 2 x ceil(log2 P)
}
