package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/prng"
	"dhsort/internal/simnet"
	"dhsort/internal/sortutil"
	"dhsort/internal/workload"
)

func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// checkLocalSortMatches sorts a copy of data with LocalSortKernel's dispatch
// and with the pure comparison sort and requires bit-identical results.
func checkLocalSortMatches[K any](t *testing.T, name string, data []K, ops keys.Ops[K], threads int, wantKernel string) {
	t.Helper()
	got := make([]K, len(data))
	copy(got, data)
	ar := &sortutil.Arena[K]{}
	kernel, passes := LocalSortKernel(got, ops, "", threads, ar)
	if kernel != wantKernel {
		t.Fatalf("%s: dispatched to %s, want %s", name, kernel, wantKernel)
	}
	if kernel == KernelRadix && len(data) > 1 && passes < 1 {
		t.Fatalf("%s: radix kernel reported %d passes", name, passes)
	}
	want := make([]K, len(data))
	copy(want, data)
	sortutil.Sort(want, ops.Less)
	ga := make([]byte, 0, 64)
	wa := make([]byte, 0, 64)
	for i := range want {
		gb := ops.ToBits(got[i])
		wb := ops.ToBits(want[i])
		ga = binary.AppendUvarint(ga[:0], gb.Hi)
		ga = binary.AppendUvarint(ga, gb.Lo)
		wa = binary.AppendUvarint(wa[:0], wb.Hi)
		wa = binary.AppendUvarint(wa, wb.Lo)
		if !bytes.Equal(ga, wa) {
			t.Fatalf("%s: kernel %s diverges from introsort at index %d", name, kernel, i)
		}
	}
}

// TestLocalSortDispatchAndEquivalence covers every Ops with an image, the
// float total order (NaN, ±0, ±Inf), the two-stage triple kernel, and the
// comparison fallbacks.
func TestLocalSortDispatchAndEquivalence(t *testing.T) {
	withProcs(t, 4)
	src := prng.NewXoshiro256(31337)
	n := 20000

	u := make([]uint64, n)
	i64 := make([]int64, n)
	f64 := make([]float64, n)
	u32 := make([]uint32, n)
	f32 := make([]float32, n)
	s := make([]string, n)
	for i := range u {
		v := src.Uint64()
		u[i] = v % 5000 // duplicate-heavy
		i64[i] = int64(v)
		f64[i] = math.Float64frombits(v) // includes NaNs, infinities, -0
		u32[i] = uint32(v)
		f32[i] = math.Float32frombits(uint32(v))
		s[i] = string(rune('a' + v%26))
	}
	f64[0], f64[1], f64[2] = math.NaN(), math.Copysign(0, -1), math.Inf(-1)

	checkLocalSortMatches(t, "uint64", u, keys.Uint64{}, 1, KernelRadix)
	checkLocalSortMatches(t, "int64", i64, keys.Int64{}, 1, KernelRadix)
	checkLocalSortMatches(t, "float64", f64, keys.Float64{}, 1, KernelRadix)
	checkLocalSortMatches(t, "uint32", u32, keys.Uint32{}, 1, KernelRadix)
	checkLocalSortMatches(t, "float32", f32, keys.Float32{}, 1, KernelRadix)
	checkLocalSortMatches(t, "string-seq", s, keys.String{}, 1, KernelIntrosort)
	checkLocalSortMatches(t, "string-par", s, keys.String{}, 4, KernelTaskMerge)

	// Triples: the two-stage LSD composition must reproduce the
	// (key, rank, index) comparison exactly.
	tr := keys.MakeUnique(u[:4000], 3)
	for i := range tr {
		tr[i].Rank = uint32(i % 7) // several source ranks, same keys
	}
	checkLocalSortMatches(t, "triple", tr, keys.NewTripleOps[uint64](keys.Uint64{}), 1, KernelRadix)
}

// TestLocalSortPairsKeepPayload: pairs dispatch to radix via the base key
// and the payload must travel with its key.
func TestLocalSortPairsKeepPayload(t *testing.T) {
	src := prng.NewXoshiro256(5)
	n := 8000
	pairs := make([]keys.Pair[uint64, int], n)
	for i := range pairs {
		pairs[i] = keys.Pair[uint64, int]{Key: prng.Uint64n(src, 200), Val: i}
	}
	ops := keys.NewPairOps[uint64, int](keys.Uint64{})
	kernel, _ := LocalSortKernel(pairs, ops, "", 1, nil)
	if kernel != KernelRadix {
		t.Fatalf("pair dispatch = %s, want radix", kernel)
	}
	if !sortutil.IsSorted(pairs, ops.Less) {
		t.Fatal("pairs not sorted by key")
	}
	// Multiset check: every (key, value) binding must survive.
	seen := make(map[keys.Pair[uint64, int]]int, n)
	for _, p := range pairs {
		seen[p]++
	}
	if len(seen) != n {
		t.Fatalf("pair bindings lost: %d distinct, want %d", len(seen), n)
	}
}

func TestLocalSortKernelOverride(t *testing.T) {
	withProcs(t, 4)
	data := randomU64(77, 10000, 1e9)
	for _, force := range []string{KernelRadix, KernelTaskMerge, KernelIntrosort} {
		a := append([]uint64(nil), data...)
		kernel, _ := LocalSortKernel(a, keys.Uint64{}, force, 2, nil)
		if kernel != force {
			t.Errorf("forced %s, ran %s", force, kernel)
		}
		if !sortutil.IsSorted(a, keys.Uint64{}.Less) {
			t.Errorf("forced %s: not sorted", force)
		}
	}
	// Forcing radix on comparison-only keys must fall back, not crash.
	s := []string{"b", "a", "c"}
	kernel, _ := LocalSortKernel(s, keys.String{}, KernelRadix, 1, nil)
	if kernel != KernelIntrosort {
		t.Errorf("forced radix on strings ran %s, want introsort fallback", kernel)
	}
}

func TestLocalSortCostPricing(t *testing.T) {
	m := simnet.SuperMUC(16, true)
	n := 1 << 20
	radix := LocalSortCost(m, KernelRadix, n, 8, 1)
	comparison := LocalSortCost(m, KernelIntrosort, n, 0, 1)
	if radix <= 0 || comparison <= 0 {
		t.Fatal("costs must be positive")
	}
	if radix >= comparison {
		t.Errorf("radix cost %v not below comparison cost %v at n=%d", radix, comparison, n)
	}
	// Fewer modelled passes must be cheaper.
	if c2 := LocalSortCost(m, KernelRadix, n, 2, 1); c2 >= radix {
		t.Errorf("2-pass cost %v not below 8-pass cost %v", c2, radix)
	}
	// The threaded comparison kernel must price below sequential but above
	// perfect scaling.
	seq := LocalSortCost(m, KernelTaskMerge, n, 0, 1)
	par := LocalSortCost(m, KernelTaskMerge, n, 0, 4)
	if par >= seq {
		t.Errorf("threaded cost %v not below sequential %v", par, seq)
	}
	if par <= seq/4 {
		t.Errorf("threaded cost %v better than perfect 4x scaling of %v", par, seq)
	}
	// Models without radix calibration fall back to the comparison price.
	plain := &simnet.CostModel{CompareNs: 1}
	if got := plain.RadixSortCost(n, 8); got != plain.SortCost(n) {
		t.Errorf("uncalibrated RadixSortCost = %v, want SortCost %v", got, plain.SortCost(n))
	}
	if d := plain.Threaded(time.Second, 4); d != time.Second {
		t.Errorf("uncalibrated Threaded = %v, want identity", d)
	}
}

func TestSearchWorkers(t *testing.T) {
	cases := []struct {
		threads, tasks, n, want int
	}{
		{1, 100, 1 << 20, 1},  // no budget
		{8, 1, 1 << 20, 1},    // single task
		{8, 100, 1000, 1},     // partition below cutoff
		{8, 100, 1 << 20, 8},  // budget-bound
		{8, 3, 1 << 20, 3},    // task-bound
		{0, 100, 1 << 20, 1},  // zero budget
		{16, 15, 1 << 20, 15}, // exact clamp
	}
	for _, c := range cases {
		if got := searchWorkers(c.threads, c.tasks, c.n); got != c.want {
			t.Errorf("searchWorkers(%d,%d,%d) = %d, want %d", c.threads, c.tasks, c.n, got, c.want)
		}
	}
}

// TestSortThreadsBitIdentical: the full distributed sort must produce
// bit-identical partitions for any thread budget, across merge strategies
// and exchanges — parallelism may never change the answer.
func TestSortThreadsBitIdentical(t *testing.T) {
	withProcs(t, 4)
	p, perRank := 8, 1500
	for _, cfgBase := range []Config{
		{},
		{Merge: MergeBinaryTree},
		{Merge: MergeOverlap},
		{Exchange: comm.ExchangeRMAPut},
		{ForceUnique: true},
	} {
		spec := workload.Spec{Dist: workload.Zipf, Seed: 99, Span: 1e6}
		cfg1 := cfgBase
		cfg1.Threads = 1
		_, base := runSort(t, p, spec, perRank, cfg1, nil)
		for _, threads := range []int{3, 8} {
			cfg := cfgBase
			cfg.Threads = threads
			_, outs := runSort(t, p, spec, perRank, cfg, nil)
			for r := range base {
				if len(outs[r]) != len(base[r]) {
					t.Fatalf("cfg %+v threads=%d: rank %d size %d != %d", cfgBase, threads, r, len(outs[r]), len(base[r]))
				}
				for i := range base[r] {
					if outs[r][i] != base[r][i] {
						t.Fatalf("cfg %+v threads=%d: rank %d diverges at %d", cfgBase, threads, r, i)
					}
				}
			}
		}
	}
}

// TestFindSplittersThreadsEquivalent: the parallel per-splitter searches
// must return exactly the sequential splitters and iteration count.
func TestFindSplittersThreadsEquivalent(t *testing.T) {
	withProcs(t, 4)
	p, perRank := 8, 5000 // above searchParallelCutoff
	run := func(threads int) ([][]uint64, []int) {
		w, err := comm.NewWorld(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		splits := make([][]uint64, p)
		iters := make([]int, p)
		err = w.Run(func(c *comm.Comm) error {
			spec := workload.Spec{Dist: workload.Normal, Seed: 3, Span: 1e9}
			local, err := spec.Rank(c.Rank(), perRank)
			if err != nil {
				return err
			}
			sortutil.Sort(local, keys.Uint64{}.Less)
			targets := make([]int64, p-1)
			for i := range targets {
				targets[i] = int64((i + 1) * perRank)
			}
			s, n := FindSplitters(c, local, keys.Uint64{}, targets, 0, Config{Threads: threads})
			splits[c.Rank()] = s
			iters[c.Rank()] = n
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return splits, iters
	}
	baseS, baseI := run(1)
	for _, threads := range []int{3, 8} {
		gotS, gotI := run(threads)
		for r := range baseS {
			if gotI[r] != baseI[r] {
				t.Fatalf("threads=%d: rank %d iterations %d != %d", threads, r, gotI[r], baseI[r])
			}
			for i := range baseS[r] {
				if gotS[r][i] != baseS[r][i] {
					t.Fatalf("threads=%d: rank %d splitter %d diverges", threads, r, i)
				}
			}
		}
	}
}

func randomU64(seed uint64, n int, span uint64) []uint64 {
	src := prng.NewXoshiro256(seed)
	a := make([]uint64, n)
	for i := range a {
		a[i] = prng.Uint64n(src, span)
	}
	return a
}

// FuzzLocalSortMatchesIntrosort drives the radix dispatch with arbitrary
// byte strings reinterpreted as uint64/float64 keys.
func FuzzLocalSortMatchesIntrosort(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf8, 0x7f, 1}) // NaN bits
	f.Add(bytes.Repeat([]byte{0xab}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 8
		if n == 0 {
			return
		}
		u := make([]uint64, n)
		fl := make([]float64, n)
		for i := 0; i < n; i++ {
			v := binary.LittleEndian.Uint64(raw[8*i:])
			u[i] = v
			fl[i] = math.Float64frombits(v)
		}

		gotU := append([]uint64(nil), u...)
		if kernel, _ := LocalSortKernel(gotU, keys.Uint64{}, "", 1, nil); kernel != KernelRadix {
			t.Fatalf("uint64 dispatched to %s", kernel)
		}
		wantU := append([]uint64(nil), u...)
		sort.Slice(wantU, func(i, j int) bool { return wantU[i] < wantU[j] })
		for i := range wantU {
			if gotU[i] != wantU[i] {
				t.Fatalf("uint64 radix diverges at %d", i)
			}
		}

		gotF := append([]float64(nil), fl...)
		LocalSortKernel(gotF, keys.Float64{}, "", 1, nil)
		wantF := append([]float64(nil), fl...)
		sortutil.Sort(wantF, keys.Float64{}.Less)
		for i := range wantF {
			if math.Float64bits(gotF[i]) != math.Float64bits(wantF[i]) {
				t.Fatalf("float64 radix diverges at %d: %x != %x", i,
					math.Float64bits(gotF[i]), math.Float64bits(wantF[i]))
			}
		}
	})
}

// TestLocalSortRunsGathers: the out-of-place entry sorts the concatenation of
// its runs into dst through every kernel, leaves the runs untouched, and
// agrees with the in-place entry on output and pass count.
func TestLocalSortRunsGathers(t *testing.T) {
	src := prng.NewXoshiro256(4242)
	n := 9000
	u := make([]uint64, n)
	f := make([]float64, n)
	s := make([]string, n)
	for i := range u {
		v := src.Uint64()
		u[i] = v
		f[i] = math.Float64frombits(v)
		s[i] = string(rune('a' + v%26))
	}
	cutRuns := func(cut func(lo, hi int)) {
		for _, b := range [][2]int{{0, 1}, {1, 1}, {1, 4000}, {4000, 4001}, {4001, n}} {
			cut(b[0], b[1])
		}
	}
	check := func(name string, same bool, passes, wantPasses int) {
		t.Helper()
		if !same {
			t.Errorf("%s: gathered sort differs from the in-place sort, or modified its runs", name)
		}
		if passes != wantPasses {
			t.Errorf("%s: gathered sort ran %d passes, in place %d", name, passes, wantPasses)
		}
	}

	var ur [][]uint64
	cutRuns(func(lo, hi int) { ur = append(ur, u[lo:hi]) })
	uIn := append([]uint64(nil), u...)
	uWant := append([]uint64(nil), u...)
	_, wantPasses := LocalSortKernel(uWant, keys.Uint64{}, "", 1, nil)
	uGot := make([]uint64, n)
	kernel, passes := LocalSortRuns(uGot, ur, keys.Uint64{}, "", 1, &sortutil.Arena[uint64]{})
	if kernel != KernelRadix {
		t.Fatalf("uint64 dispatched to %s", kernel)
	}
	check("uint64", slices.Equal(uGot, uWant) && slices.Equal(u, uIn), passes, wantPasses)

	var fr [][]float64
	cutRuns(func(lo, hi int) { fr = append(fr, f[lo:hi]) })
	fBits := func(a []float64) []uint64 {
		out := make([]uint64, len(a))
		for i, v := range a {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	fIn := fBits(f)
	fWant := append([]float64(nil), f...)
	_, wantPasses = LocalSortKernel(fWant, keys.Float64{}, "", 1, nil)
	fGot := make([]float64, n)
	_, passes = LocalSortRuns(fGot, fr, keys.Float64{}, "", 1, nil)
	check("float64", slices.Equal(fBits(fGot), fBits(fWant)) && slices.Equal(fBits(f), fIn), passes, wantPasses)

	var sr [][]string
	cutRuns(func(lo, hi int) { sr = append(sr, s[lo:hi]) })
	sIn := append([]string(nil), s...)
	sWant := append([]string(nil), s...)
	slices.Sort(sWant)
	for _, force := range []string{KernelIntrosort, KernelTaskMerge} {
		sGot := make([]string, n)
		kernel, _ := LocalSortRuns(sGot, sr, keys.String{}, force, 2, nil)
		if kernel != force {
			t.Fatalf("strings: forced %s, ran %s", force, kernel)
		}
		check("string/"+force, slices.Equal(sGot, sWant) && slices.Equal(s, sIn), 0, 0)
	}
}

// TestLocalSortRunsPayloadOrder: the element+image path is unchanged by the
// gathering front end — pairs with equal keys keep their input order, earlier
// runs first, and triples come out in exactly the (key, rank, index) order of
// the two-stage composition.
func TestLocalSortRunsPayloadOrder(t *testing.T) {
	src := prng.NewXoshiro256(77)
	n := 12000
	pairs := make([]keys.Pair[uint64, int], n)
	for i := range pairs {
		pairs[i] = keys.Pair[uint64, int]{Key: prng.Uint64n(src, 300), Val: i}
	}
	pops := keys.NewPairOps[uint64, int](keys.Uint64{})
	pWant := append([]keys.Pair[uint64, int](nil), pairs...)
	slices.SortStableFunc(pWant, byPairKey)
	pGot := make([]keys.Pair[uint64, int], n)
	kernel, _ := LocalSortRuns(pGot, [][]keys.Pair[uint64, int]{pairs[:5], pairs[5:5], pairs[5:7000], pairs[7000:]}, pops, "", 1, nil)
	if kernel != KernelRadix {
		t.Fatalf("pairs dispatched to %s", kernel)
	}
	if !slices.Equal(pGot, pWant) {
		t.Error("gathered pair sort is not the stable order")
	}
	pInPlace := append([]keys.Pair[uint64, int](nil), pairs...)
	LocalSortKernel(pInPlace, pops, "", 1, nil)
	if !slices.Equal(pInPlace, pWant) {
		t.Error("in-place pair sort is not the stable order")
	}

	keysOnly := make([]uint64, 5000)
	for i := range keysOnly {
		keysOnly[i] = prng.Uint64n(src, 40)
	}
	tr := keys.MakeUnique(keysOnly, 3)
	for i := range tr {
		tr[i].Rank = uint32((i * 31) % 7)
	}
	tops := keys.NewTripleOps[uint64](keys.Uint64{})
	tWant := append([]keys.Triple[uint64](nil), tr...)
	sortutil.Sort(tWant, tops.Less) // triples are unique: one valid order
	tIn := append([]keys.Triple[uint64](nil), tr...)
	tGot := make([]keys.Triple[uint64], len(tr))
	_, passes := LocalSortRuns(tGot, [][]keys.Triple[uint64]{tr[:1], tr[1:2500], tr[2500:]}, tops, "", 1, nil)
	if !slices.Equal(tGot, tWant) {
		t.Error("gathered triple sort diverges from the (key, rank, index) order")
	}
	if !slices.Equal(tr, tIn) {
		t.Error("gathered triple sort modified its runs")
	}
	tInPlace := append([]keys.Triple[uint64](nil), tr...)
	if _, p := LocalSortKernel(tInPlace, tops, "", 1, nil); p != passes {
		t.Errorf("triple passes: gathered %d, in place %d", passes, p)
	}
	if !slices.Equal(tInPlace, tWant) {
		t.Error("in-place triple sort diverges from the (key, rank, index) order")
	}
}

// TestLocalSortRunsPayloadOrderFullRange is TestLocalSortRunsPayloadOrder at
// 2^16 records with full-range keys, where the radix kernel stops scattering
// after the top digits and finishes groups in its scan: every key value
// occurs about 8 or about 136 times, so groups of equal keys end on both
// sides of the scan's insertion bound and their payload order is all that
// tells a stable finish from an unstable one.
func TestLocalSortRunsPayloadOrderFullRange(t *testing.T) {
	const n = 1 << 16
	src := prng.NewXoshiro256(78)
	pool := make([]uint64, n/16)
	for i := range pool {
		pool[i] = src.Uint64()
	}
	key := func(i int) uint64 {
		if i%2 == 0 {
			return pool[prng.Uint64n(src, uint64(len(pool)/16))] // 128 copies each
		}
		return pool[prng.Uint64n(src, uint64(len(pool)))] // and 8 of everything
	}

	pairs := make([]keys.Pair[uint64, int], n)
	for i := range pairs {
		pairs[i] = keys.Pair[uint64, int]{Key: key(i), Val: i}
	}
	pops := keys.NewPairOps[uint64, int](keys.Uint64{})
	pWant := slices.Clone(pairs)
	slices.SortStableFunc(pWant, byPairKey)
	pGot := make([]keys.Pair[uint64, int], n)
	if kernel, passes := LocalSortRuns(pGot, [][]keys.Pair[uint64, int]{pairs[:9], pairs[9:40000], pairs[40000:]}, pops, "", 1, nil); kernel != KernelRadix || passes != 8 {
		t.Fatalf("pairs: kernel %s, %d modelled passes, want radix, 8", kernel, passes)
	}
	if !slices.Equal(pGot, pWant) {
		t.Error("gathered pair sort is not the stable order")
	}
	pInPlace := slices.Clone(pairs)
	LocalSortKernel(pInPlace, pops, "", 1, nil)
	if !slices.Equal(pInPlace, pWant) {
		t.Error("in-place pair sort is not the stable order")
	}

	keysOnly := make([]uint64, n)
	for i := range keysOnly {
		keysOnly[i] = key(i)
	}
	tr := keys.MakeUnique(keysOnly, 3)
	for i := range tr {
		tr[i].Rank = uint32((i * 31) % 7)
	}
	tops := keys.NewTripleOps[uint64](keys.Uint64{})
	tWant := slices.Clone(tr)
	sortutil.Sort(tWant, tops.Less) // triples are unique: one valid order
	tIn := slices.Clone(tr)
	tGot := make([]keys.Triple[uint64], n)
	LocalSortRuns(tGot, [][]keys.Triple[uint64]{tr[:1], tr[1:2500], tr[2500:]}, tops, "", 1, nil)
	if !slices.Equal(tGot, tWant) {
		t.Error("gathered triple sort diverges from the (key, rank, index) order")
	}
	if !slices.Equal(tr, tIn) {
		t.Error("gathered triple sort modified its runs")
	}
	LocalSortKernel(tr, tops, "", 1, nil)
	if !slices.Equal(tr, tWant) {
		t.Error("in-place triple sort diverges from the (key, rank, index) order")
	}
}

// BenchmarkRadixTriple: 2^18 uniqueness triples over full-range keys through
// the dispatch — the two-stage (suffix, then primary) element+image order.
// Companion of the kernel benchmarks in internal/sortutil/bench_test.go:
//
//	go test ./internal/core -run '^$' -bench RadixTriple -benchtime 20x -cpu 1
func BenchmarkRadixTriple(b *testing.B) {
	const n = 1 << 18
	src := prng.NewXoshiro256(n)
	local := make([]uint64, n)
	for i := range local {
		local[i] = src.Uint64()
	}
	runs := [][]keys.Triple[uint64]{keys.MakeUnique(local, 3)}
	dst := make([]keys.Triple[uint64], n)
	tops := keys.NewTripleOps[uint64](keys.Uint64{})
	ar := &sortutil.Arena[keys.Triple[uint64]]{}
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalSortRuns(dst, runs, tops, "", 1, ar)
	}
}

// byPairKey orders pairs by key alone, the order PairOps.Less is.
func byPairKey(a, b keys.Pair[uint64, int]) int { return cmp.Compare(a.Key, b.Key) }
