package hss

import (
	"runtime"
	"sort"
	"sync"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

var u64 = keys.Uint64{}

func runIt(t *testing.T, p, perRank int, spec workload.Spec, cfg core.Config, seed uint64, model *simnet.CostModel) (ins, outs [][]uint64) {
	t.Helper()
	ins, outs, _ = runRecorded(t, p, perRank, spec, cfg, seed, model)
	return ins, outs
}

// runRecorded is runIt additionally returning every rank's recorder.
func runRecorded(t *testing.T, p, perRank int, spec workload.Spec, cfg core.Config, seed uint64, model *simnet.CostModel) (ins, outs [][]uint64, recs []*metrics.Recorder) {
	t.Helper()
	w, err := comm.NewWorld(p, model)
	if err != nil {
		t.Fatal(err)
	}
	ins = make([][]uint64, p)
	outs = make([][]uint64, p)
	recs = make([]*metrics.Recorder, p)
	var mu sync.Mutex
	err = w.Run(func(c *comm.Comm) error {
		local, err := spec.Rank(c.Rank(), perRank)
		if err != nil {
			return err
		}
		rankCfg := cfg
		rankCfg.Recorder = metrics.ForComm(c)
		out, err := Sort(c, local, u64, rankCfg, seed)
		if err != nil {
			return err
		}
		mu.Lock()
		ins[c.Rank()] = local
		outs[c.Rank()] = out
		recs[c.Rank()] = rankCfg.Recorder
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ins, outs, recs
}

func checkOutput(t *testing.T, ins, outs [][]uint64, perfect bool) {
	t.Helper()
	var all, got []uint64
	for _, in := range ins {
		all = append(all, in...)
	}
	var prev uint64
	first := true
	for r, out := range outs {
		for i, v := range out {
			if !first && v < prev {
				t.Fatalf("order violated at rank %d index %d", r, i)
			}
			prev, first = v, false
		}
		got = append(got, out...)
	}
	if len(got) != len(all) {
		t.Fatalf("count changed: %d -> %d", len(all), len(got))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i := range all {
		if got[i] != all[i] {
			t.Fatalf("not a permutation at %d", i)
		}
	}
	if perfect {
		for r := range ins {
			if len(outs[r]) != len(ins[r]) {
				t.Fatalf("perfect partitioning violated on rank %d: %d vs %d", r, len(outs[r]), len(ins[r]))
			}
		}
	}
}

func TestHSSUniform(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 13} {
		spec := workload.Spec{Dist: workload.Uniform, Seed: uint64(p), Span: 1e9}
		ins, outs := runIt(t, p, 400, spec, core.Config{}, 2, nil)
		checkOutput(t, ins, outs, true)
	}
}

func TestHSSNormalAndSkewed(t *testing.T) {
	for _, d := range []workload.Distribution{workload.Normal, workload.Zipf, workload.NearlySorted} {
		spec := workload.Spec{Dist: d, Seed: 3, Span: 1e9}
		ins, outs := runIt(t, 8, 500, spec, core.Config{}, 4, nil)
		checkOutput(t, ins, outs, true)
	}
}

func TestHSSDuplicates(t *testing.T) {
	for _, d := range []workload.Distribution{workload.DuplicateHeavy, workload.AllEqual} {
		spec := workload.Spec{Dist: d, Seed: 5, Span: 1e9}
		ins, outs := runIt(t, 6, 300, spec, core.Config{}, 6, nil)
		checkOutput(t, ins, outs, true)
	}
}

func TestHSSMultiProbe(t *testing.T) {
	// k-ary probing must keep the perfect partition on both the friendly
	// (uniform) and hostile (zipf) distributions for the interpolation.
	for _, probes := range []int{2, 4, 8} {
		for _, d := range []workload.Distribution{workload.Uniform, workload.Zipf} {
			spec := workload.Spec{Dist: d, Seed: 21, Span: 1e9}
			ins, outs := runIt(t, 8, 400, spec, core.Config{Probes: probes}, 22, nil)
			checkOutput(t, ins, outs, true)
		}
	}
}

func TestHSSMultiProbeNoSlowerOnSkew(t *testing.T) {
	// Auxiliary probes bracket the answer even when interpolation misfires:
	// on zipf keys, 8 probes per boundary must not take more rounds than
	// the single interpolated probe.
	iterations := func(probes int) int {
		spec := workload.Spec{Dist: workload.Zipf, Seed: 31, Span: 1e9}
		p := 8
		w, _ := comm.NewWorld(p, nil)
		recs := make([]*metrics.Recorder, p)
		var mu sync.Mutex
		err := w.Run(func(c *comm.Comm) error {
			local, err := spec.Rank(c.Rank(), 500)
			if err != nil {
				return err
			}
			rec := metrics.ForComm(c)
			_, err = Sort(c, local, u64, core.Config{Probes: probes, Recorder: rec}, 32)
			mu.Lock()
			recs[c.Rank()] = rec
			mu.Unlock()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return metrics.Summarize(recs).Iterations
	}
	single, multi := iterations(1), iterations(8)
	if multi > single {
		t.Errorf("8-probe refinement took %d rounds, single-probe %d", multi, single)
	}
}

func TestHSSSparse(t *testing.T) {
	spec := workload.Spec{Dist: workload.Uniform, Seed: 5, Span: 1e9, Sparse: 3}
	ins, outs := runIt(t, 9, 200, spec, core.Config{}, 6, nil)
	checkOutput(t, ins, outs, true)
}

func TestHSSEpsilonRelaxed(t *testing.T) {
	spec := workload.Spec{Dist: workload.Uniform, Seed: 15, Span: 1e9}
	ins, outs := runIt(t, 8, 600, spec, core.Config{Epsilon: 0.2}, 6, nil)
	checkOutput(t, ins, outs, false)
	n := 0
	for _, in := range ins {
		n += len(in)
	}
	bound := int(float64(n)*1.2/8) + 1
	for r, out := range outs {
		if len(out) > bound {
			t.Errorf("rank %d exceeds epsilon bound: %d > %d", r, len(out), bound)
		}
	}
}

func TestHSSConvergesFasterOnUniformThanSkewed(t *testing.T) {
	// The sampling/interpolation assumption of [1]: uniform keys converge
	// in few iterations; skew slows convergence (the volatility the paper
	// observed, §VI-B/C).
	iters := func(d workload.Distribution) int {
		p := 8
		w, _ := comm.NewWorld(p, nil)
		recs := make([]*metrics.Recorder, p)
		var mu sync.Mutex
		err := w.Run(func(c *comm.Comm) error {
			spec := workload.Spec{Dist: d, Seed: 21, Span: 1e9}
			local, _ := spec.Rank(c.Rank(), 1000)
			rec := metrics.ForComm(c)
			_, err := Sort(c, local, u64, core.Config{Recorder: rec}, 9)
			mu.Lock()
			recs[c.Rank()] = rec
			mu.Unlock()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return metrics.Summarize(recs).Iterations
	}
	uni := iters(workload.Uniform)
	zipf := iters(workload.Zipf)
	if uni == 0 {
		t.Fatal("no iterations recorded")
	}
	if zipf < uni {
		t.Logf("note: zipf converged faster than uniform (%d vs %d) on this seed", zipf, uni)
	}
	if uni > 60 {
		t.Errorf("uniform keys should converge quickly, took %d iterations", uni)
	}
}

func TestHSSUnderCostModel(t *testing.T) {
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 23, Span: 1e9}
	ins, outs := runIt(t, 12, 250, spec, core.Config{}, 3, model)
	checkOutput(t, ins, outs, true)
}

func TestHSSForceUniqueStillSorts(t *testing.T) {
	spec := workload.Spec{Dist: workload.DuplicateHeavy, Seed: 25, Span: 1e9}
	ins, outs := runIt(t, 5, 300, spec, core.Config{ForceUnique: true}, 3, nil)
	checkOutput(t, ins, outs, true)
}

// TestHSSThreadsBitIdentical: raising the intra-rank thread budget must not
// change a single output element — parallel local kernels and splitter
// searches are exact, not approximate.
func TestHSSThreadsBitIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	spec := workload.Spec{Dist: workload.Zipf, Seed: 41, Span: 1e6}
	_, base := runIt(t, 8, 1200, spec, core.Config{Threads: 1}, 7, nil)
	for _, threads := range []int{3, 8} {
		_, outs := runIt(t, 8, 1200, spec, core.Config{Threads: threads}, 7, nil)
		for r := range base {
			if len(outs[r]) != len(base[r]) {
				t.Fatalf("threads=%d: rank %d holds %d keys, want %d", threads, r, len(outs[r]), len(base[r]))
			}
			for i := range base[r] {
				if outs[r][i] != base[r][i] {
					t.Fatalf("threads=%d: rank %d diverges at index %d", threads, r, i)
				}
			}
		}
	}
}

// TestSampledRefinementAllocations is the sampled twin of core's
// TestRefinementLoopAllocationFree: a sampled find must allocate a constant
// independent of its round count.  Eight ranks find seven splitters over
// uniform keys (~20 rounds) and over zipf keys (~170); AllocsPerRun on rank
// 0 counts the mallocs of the whole process, the other ranks making the
// same calls.  A loop that allocated per round would cost at least one
// malloc per rank and round.
func TestSampledRefinementAllocations(t *testing.T) {
	const p, perRank, runs = 8, 1024, 10
	targets := make([]int64, p-1)
	for i := range targets {
		targets[i] = int64(i+1) * perRank
	}
	measure := func(spec workload.Spec) (allocs float64, rounds int) {
		w, _ := comm.NewWorld(p, nil)
		err := w.Run(func(c *comm.Comm) error {
			local, err := spec.Rank(c.Rank(), perRank)
			if err != nil {
				return err
			}
			sort.Slice(local, func(i, j int) bool { return local[i] < local[j] })
			src := core.NewMemSource(local, u64)
			rec := metrics.ForComm(c)
			sampled[uint64](core.Config{Threads: 1, Recorder: rec}, 3)(c, src, u64, targets, 0, 0)
			find := func() { sampled[uint64](core.Config{Threads: 1}, 3)(c, src, u64, targets, 0, 0) }
			if c.Rank() != 0 {
				for i := 0; i < runs+1; i++ { // AllocsPerRun makes one extra warm-up call
					find()
				}
				return nil
			}
			allocs, rounds = testing.AllocsPerRun(runs, find), rec.Iterations
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return allocs, rounds
	}
	uniAllocs, uniRounds := measure(workload.Spec{Dist: workload.Uniform, Seed: 3, Span: 1e6})
	zipfAllocs, zipfRounds := measure(workload.Spec{Dist: workload.Zipf, Seed: 3, Span: 1e6})
	if zipfRounds < uniRounds+100 {
		t.Fatalf("expected zipf to take many more rounds than uniform, got %d vs %d", zipfRounds, uniRounds)
	}
	if zipfAllocs > uniAllocs+p {
		t.Errorf("sampled find allocates %.0f times over %d rounds but %.0f over %d — the rounds allocate", zipfAllocs, zipfRounds, uniAllocs, uniRounds)
	}
}

// BenchmarkFindSplittersSampledP64 is the sampled finder at the shape of
// core's BenchmarkFindSplittersP64 — 64 ranks, 1,024 normal float64 keys
// each, on a persistent world — for paired runs against a parent commit.
func BenchmarkFindSplittersSampledP64(b *testing.B) {
	const p, perRank = 64, 1024
	ops := keys.Float64{}
	locals := make([][]float64, p)
	targets := make([]int64, p-1)
	for r := range locals {
		ks, _ := workload.Spec{Dist: workload.Normal, Seed: 1}.Rank(r, perRank)
		locals[r] = workload.Floats(ks)
		sort.Float64s(locals[r])
		if r < p-1 {
			targets[r] = int64((r + 1) * perRank)
		}
	}
	pw, err := comm.NewPersistentWorld(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer pw.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := pw.Execute(func(c *comm.Comm) error {
			FindSplittersSampled(c, locals[c.Rank()], ops, targets, 0, Config{Seed: 1})
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
