package core

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

var u64 = keys.Uint64{}

// runSort executes a distributed sort of the given workload on p ranks and
// returns the per-rank inputs and outputs.
func runSort(t *testing.T, p int, spec workload.Spec, perRank int, cfg Config, model *simnet.CostModel) (ins, outs [][]uint64) {
	t.Helper()
	w, err := comm.NewWorld(p, model)
	if err != nil {
		t.Fatal(err)
	}
	ins = make([][]uint64, p)
	outs = make([][]uint64, p)
	var mu sync.Mutex
	err = w.Run(func(c *comm.Comm) error {
		local, err := spec.Rank(c.Rank(), perRank)
		if err != nil {
			return err
		}
		out, err := Sort(c, local, u64, cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		ins[c.Rank()] = local
		outs[c.Rank()] = out
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ins, outs
}

// checkSorted verifies the output invariant: globally sorted, a permutation
// of the input, and (when perfect is true) per-rank sizes equal to inputs.
func checkSorted(t *testing.T, ins, outs [][]uint64, perfect bool, epsilon float64) {
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
				t.Fatalf("global order violated at rank %d index %d: %d < %d", r, i, v, prev)
			}
			prev, first = v, false
		}
		got = append(got, out...)
	}
	if len(got) != len(all) {
		t.Fatalf("element count changed: %d -> %d", len(all), len(got))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i := range all {
		if got[i] != all[i] {
			t.Fatalf("not a permutation: index %d has %d, want %d", i, got[i], all[i])
		}
	}
	if perfect {
		for r := range ins {
			if len(outs[r]) != len(ins[r]) {
				t.Fatalf("perfect partitioning violated: rank %d has %d, contributed %d", r, len(outs[r]), len(ins[r]))
			}
		}
	} else if epsilon > 0 {
		n := len(all)
		p := len(ins)
		bound := int(float64(n)*(1+epsilon)/float64(p)) + 1
		for r, out := range outs {
			if len(out) > bound {
				t.Fatalf("load balance violated: rank %d has %d > %d", r, len(out), bound)
			}
		}
	}
}

func TestSortAllDistributionsAndSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		for _, dist := range workload.Distributions {
			spec := workload.Spec{Dist: dist, Seed: uint64(p), Span: 1e9}
			ins, outs := runSort(t, p, spec, 200, Config{}, nil)
			checkSorted(t, ins, outs, true, 0)
		}
	}
}

func TestSortLargerScale(t *testing.T) {
	spec := workload.Spec{Dist: workload.Uniform, Seed: 99, Span: 1e9}
	ins, outs := runSort(t, 16, spec, 5000, Config{}, nil)
	checkSorted(t, ins, outs, true, 0)
}

func TestSortNonPowerOfTwoRanks(t *testing.T) {
	// The paper stresses freedom from power-of-two constraints (§VI-B).
	for _, p := range []int{7, 11, 23} {
		spec := workload.Spec{Dist: workload.Uniform, Seed: 5, Span: 1e9}
		ins, outs := runSort(t, p, spec, 321, Config{}, nil)
		checkSorted(t, ins, outs, true, 0)
	}
}

func TestSortSparseRanks(t *testing.T) {
	// Sparse inputs: a fraction of ranks contribute nothing (§VII).
	spec := workload.Spec{Dist: workload.Uniform, Seed: 7, Span: 1e9, Sparse: 3}
	ins, outs := runSort(t, 9, spec, 500, Config{}, nil)
	checkSorted(t, ins, outs, true, 0)
}

func TestSortTinyInputs(t *testing.T) {
	// N < P: some ranks must end up empty (capacity 0 stays 0 under
	// perfect partitioning).
	for _, perRank := range []int{0, 1} {
		spec := workload.Spec{Dist: workload.Uniform, Seed: 3, Span: 100}
		ins, outs := runSort(t, 6, spec, perRank, Config{}, nil)
		checkSorted(t, ins, outs, true, 0)
	}
}

func TestSortAllEmpty(t *testing.T) {
	spec := workload.Spec{Dist: workload.Uniform, Seed: 3, Span: 100}
	ins, outs := runSort(t, 4, spec, 0, Config{}, nil)
	checkSorted(t, ins, outs, true, 0)
}

func TestParseMergeStrategy(t *testing.T) {
	for m := MergeResort; m <= MergeOverlap; m++ {
		text, err := m.MarshalText()
		var got MergeStrategy
		if err != nil || string(text) != m.String() || got.UnmarshalText(text) != nil || got != m {
			t.Errorf("%v: MarshalText/UnmarshalText round trip gave %v (%q, %v)", m, got, text, err)
		}
		js, err := json.Marshal(m)
		if err != nil || string(js) != strconv.Quote(m.String()) || json.Unmarshal(js, &got) != nil || got != m {
			t.Errorf("%v: JSON round trip gave %v via %s (%v)", m, got, js, err)
		}
	}
	got := MergeOverlap
	if err := got.UnmarshalText(nil); err != nil || got != MergeResort {
		t.Errorf(`UnmarshalText("") = %v, %v; want resort`, got, err)
	}
	got = MergeOverlap
	if err := json.Unmarshal([]byte(`""`), &got); err != nil || got != MergeResort {
		t.Errorf(`UnmarshalJSON("") = %v, %v; want resort`, got, err)
	}
	for _, bad := range []string{"nope", MergeStrategy(9).String()} {
		if err := got.UnmarshalText([]byte(bad)); err == nil || err.Error() != fmt.Sprintf("unknown merge strategy %q", bad) {
			t.Errorf("UnmarshalText(%q) error = %v", bad, err)
		}
		if err := json.Unmarshal([]byte(strconv.Quote(bad)), &got); err == nil {
			t.Errorf("UnmarshalJSON(%q) accepted an unknown name", bad)
		}
	}
}

func TestSortMergeStrategies(t *testing.T) {
	for _, m := range []MergeStrategy{MergeResort, MergeBinaryTree, MergeLoserTree} {
		spec := workload.Spec{Dist: workload.Normal, Seed: 11, Span: 1e9}
		ins, outs := runSort(t, 8, spec, 700, Config{Merge: m}, nil)
		checkSorted(t, ins, outs, true, 0)
	}

	// uint64 keys, which the default re-sort merges as images, at P = 2, 16
	// and 17 (a power of two of runs and one past it), with fewer keys than
	// ranks (empty runs), all keys equal, and full-range keys: the default
	// re-sort must hand every rank what the binary merge tree does.
	for _, p := range []int{2, 16, 17} {
		for _, row := range []struct {
			name string
			n    int
			spec workload.Spec
		}{
			{"N < P", p - 1, workload.Spec{Dist: workload.Uniform, Seed: 5}},
			{"all equal", 300 * p, workload.Spec{Dist: workload.AllEqual, Seed: 5}},
			{"full range", 500 * p, workload.Spec{Dist: workload.Uniform, Seed: 5}},
		} {
			ins, resort := runSortN(t, p, row.n, row.spec, Config{Merge: MergeResort})
			checkSorted(t, ins, resort, true, 0)
			_, tree := runSortN(t, p, row.n, row.spec, Config{Merge: MergeBinaryTree})
			for r := range resort {
				if !slices.Equal(resort[r], tree[r]) {
					t.Errorf("P=%d, %s: rank %d: the re-sort's partition differs from the binary tree's", p, row.name, r)
				}
			}
		}
	}
}

// runSortN is runSort for n keys in all, spread as workload.LocalSize
// spreads them: with n < p some ranks start empty.
func runSortN(t *testing.T, p, n int, spec workload.Spec, cfg Config) (ins, outs [][]uint64) {
	t.Helper()
	w, err := comm.NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	ins, outs = make([][]uint64, p), make([][]uint64, p)
	err = w.Run(func(c *comm.Comm) error {
		r := c.Rank()
		in, err := spec.Rank(r, workload.LocalSize(n, p, r))
		if err != nil {
			return err
		}
		ins[r] = in
		outs[r], err = Sort(c, slices.Clone(in), u64, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return ins, outs
}

func TestSortEpsilonRelaxed(t *testing.T) {
	spec := workload.Spec{Dist: workload.Uniform, Seed: 13, Span: 1e9}
	ins, outs := runSort(t, 8, spec, 1000, Config{Epsilon: 0.1}, nil)
	checkSorted(t, ins, outs, false, 0.1)
}

// TestSortHugeEpsilon pins the tolerance clamp: ε·N/(2P) past the int64
// range is N, so a huge ε accepts the first probes instead of converting to a
// negative tolerance that accepts none (62 rounds at this shape before the
// clamp).
func TestSortHugeEpsilon(t *testing.T) {
	spec := workload.Spec{Dist: workload.Uniform, Seed: 13, Span: 1e9}
	rounds := func(eps float64) int {
		const p, perRank = 8, 2048
		w, _ := comm.NewWorld(p, nil)
		ins, outs, recs := make([][]uint64, p), make([][]uint64, p), make([]*metrics.Recorder, p)
		err := w.Run(func(c *comm.Comm) error {
			r := c.Rank()
			ins[r], _ = spec.Rank(r, perRank)
			recs[r] = metrics.ForComm(c)
			var err error
			outs[r], err = Sort(c, slices.Clone(ins[r]), u64, Config{Epsilon: eps, Recorder: recs[r]})
			return err
		})
		if err != nil {
			t.Fatalf("ε = %g: %v", eps, err)
		}
		checkSorted(t, ins, outs, false, 0) // order and permutation; ε = 1e300 bounds no rank
		return metrics.Summarize(recs).MaxIterations
	}
	if huge, half := rounds(1e300), rounds(0.5); huge > half {
		t.Errorf("ε = 1e300 refined for %d rounds, ε = 0.5 for %d", huge, half)
	}
}

func TestSortForceUniqueTransform(t *testing.T) {
	// The §V-A transformation must preserve the full contract.
	for _, p := range []int{3, 8} {
		for _, dist := range []workload.Distribution{workload.Uniform, workload.DuplicateHeavy, workload.AllEqual} {
			spec := workload.Spec{Dist: dist, Seed: uint64(p) + 70, Span: 1e9}
			ins, outs := runSort(t, p, spec, 250, Config{ForceUnique: true}, nil)
			checkSorted(t, ins, outs, true, 0)
		}
	}
}

func TestSortRawKeysDistinct(t *testing.T) {
	// With globally distinct keys the raw-key path must give perfect
	// partitioning.
	p, perRank := 6, 400
	w, _ := comm.NewWorld(p, nil)
	ins := make([][]uint64, p)
	outs := make([][]uint64, p)
	var mu sync.Mutex
	err := w.Run(func(c *comm.Comm) error {
		local := make([]uint64, perRank)
		for i := range local {
			// Interleaved distinct keys across ranks.
			local[i] = uint64(i*p+c.Rank()) * 2654435761 % (1 << 40)
		}
		seen := map[uint64]bool{}
		for _, v := range local {
			if seen[v] {
				t.Error("test workload must be duplicate-free")
			}
			seen[v] = true
		}
		out, err := Sort(c, local, u64, Config{})
		if err != nil {
			return err
		}
		mu.Lock()
		ins[c.Rank()] = local
		outs[c.Rank()] = out
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-rank duplicates are possible due to the modulus; only check
	// global order + permutation, not perfection.
	checkSorted(t, ins, outs, false, 0)
}

func TestSortRawKeysAllEqualPerfect(t *testing.T) {
	// Degenerate duplicates on the raw-key path: Algorithm 4's boundary
	// refinement splits the equal run exactly, so perfect partitioning
	// holds without the uniqueness transformation.
	spec := workload.Spec{Dist: workload.AllEqual, Seed: 1, Span: 1e9}
	ins, outs := runSort(t, 5, spec, 100, Config{}, nil)
	checkSorted(t, ins, outs, true, 0)
}

func TestSortUnderCostModel(t *testing.T) {
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 21, Span: 1e9}
	ins, outs := runSort(t, 16, spec, 300, Config{}, model)
	checkSorted(t, ins, outs, true, 0)
}

func TestSortVirtualScaleDoesNotChangeResult(t *testing.T) {
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 22, Span: 1e9}
	_, base := runSort(t, 8, spec, 250, Config{}, model)
	_, scaled := runSort(t, 8, spec, 250, Config{VirtualScale: 64}, model)
	for r := range base {
		if len(base[r]) != len(scaled[r]) {
			t.Fatalf("rank %d: scale changed sizes", r)
		}
		for i := range base[r] {
			if base[r][i] != scaled[r][i] {
				t.Fatalf("rank %d: scale changed data", r)
			}
		}
	}
}

func TestSortVirtualScaleIncreasesMakespan(t *testing.T) {
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 23, Span: 1e9}
	mk := func(scale float64) int64 {
		w, _ := comm.NewWorld(8, model)
		err := w.Run(func(c *comm.Comm) error {
			local, _ := spec.Rank(c.Rank(), 500)
			_, err := Sort(c, local, u64, Config{VirtualScale: scale})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(w.Makespan())
	}
	if mk(64) <= mk(1) {
		t.Fatal("virtual scale must increase the virtual makespan")
	}
}

func TestSortInvalidConfig(t *testing.T) {
	w, _ := comm.NewWorld(1, nil)
	err := w.Run(func(c *comm.Comm) error {
		_, err := Sort(c, []uint64{1}, u64, Config{Epsilon: -1})
		return err
	})
	if err == nil {
		t.Fatal("negative epsilon must be rejected")
	}
	w2, _ := comm.NewWorld(1, nil)
	err = w2.Run(func(c *comm.Comm) error {
		_, err := Sort(c, []uint64{1}, u64, Config{Merge: MergeStrategy(9)})
		return err
	})
	if err == nil {
		t.Fatal("unknown merge strategy must be rejected")
	}
}

func TestValidateNonFinite(t *testing.T) {
	for _, tc := range []struct {
		cfg Config
		ok  bool
	}{
		{Config{Epsilon: math.NaN()}, false},
		{Config{Epsilon: math.Inf(1)}, false},
		{Config{Epsilon: math.Inf(-1)}, false},
		{Config{Epsilon: 1e300}, true},
		{Config{VirtualScale: math.NaN()}, false},
		{Config{VirtualScale: math.Inf(1)}, false},
		{Config{VirtualScale: math.Inf(-1)}, false},
		{Config{VirtualScale: -1}, true}, // below 1 means 1
	} {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(ε = %v, VirtualScale = %v) = %v, want ok %v", tc.cfg.Epsilon, tc.cfg.VirtualScale, err, tc.ok)
		}
	}
}

func TestSortDoesNotModifyInput(t *testing.T) {
	w, _ := comm.NewWorld(4, nil)
	err := w.Run(func(c *comm.Comm) error {
		spec := workload.Spec{Dist: workload.Uniform, Seed: 4, Span: 1e9}
		local, _ := spec.Rank(c.Rank(), 200)
		snapshot := append([]uint64(nil), local...)
		if _, err := Sort(c, local, u64, Config{}); err != nil {
			return err
		}
		for i := range local {
			if local[i] != snapshot[i] {
				t.Errorf("rank %d: input modified at %d", c.Rank(), i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortFloatKeys(t *testing.T) {
	p := 6
	w, _ := comm.NewWorld(p, nil)
	outs := make([][]float64, p)
	var mu sync.Mutex
	err := w.Run(func(c *comm.Comm) error {
		spec := workload.Spec{Dist: workload.Normal, Seed: 31, Span: 1e9}
		raw, _ := spec.Rank(c.Rank(), 500)
		local := workload.Floats(raw)
		out, err := Sort(c, local, keys.Float64{}, Config{})
		if err != nil {
			return err
		}
		if !IsGloballySorted(c, out, keys.Float64{}) {
			t.Errorf("rank %d: output not globally sorted", c.Rank())
		}
		mu.Lock()
		outs[c.Rank()] = out
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, out := range outs {
		if len(out) != 500 {
			t.Fatalf("rank %d: %d elements", r, len(out))
		}
	}
}

func TestSortUint32Keys(t *testing.T) {
	p := 4
	w, _ := comm.NewWorld(p, nil)
	err := w.Run(func(c *comm.Comm) error {
		spec := workload.Spec{Dist: workload.Uniform, Seed: 33, Span: 1 << 30}
		raw, _ := spec.Rank(c.Rank(), 400)
		local := make([]uint32, len(raw))
		for i, v := range raw {
			local[i] = uint32(v)
		}
		out, err := Sort(c, local, keys.Uint32{}, Config{})
		if err != nil {
			return err
		}
		if len(out) != 400 {
			t.Errorf("rank %d: %d elements", c.Rank(), len(out))
		}
		if !IsGloballySorted(c, out, keys.Uint32{}) {
			t.Errorf("rank %d: not sorted", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsGloballySortedDetectsViolation(t *testing.T) {
	w, _ := comm.NewWorld(3, nil)
	err := w.Run(func(c *comm.Comm) error {
		// Rank boundaries out of order: rank 0 holds large keys.
		local := []uint64{uint64(100 - c.Rank()*10)}
		if IsGloballySorted(c, local, u64) {
			t.Error("boundary violation not detected")
		}
		// Locally unsorted.
		bad := []uint64{5, 1}
		if c.Rank() > 0 {
			bad = []uint64{1000, 1001}
		}
		if IsGloballySorted(c, bad, u64) {
			t.Error("local violation not detected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortDeterministicUnderModel(t *testing.T) {
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 77, Span: 1e9}
	mk := func() int64 {
		w, _ := comm.NewWorld(12, model)
		err := w.Run(func(c *comm.Comm) error {
			local, _ := spec.Rank(c.Rank(), 400)
			_, err := Sort(c, local, u64, Config{})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(w.Makespan())
	}
	first := mk()
	for i := 0; i < 2; i++ {
		if got := mk(); got != first {
			t.Fatalf("virtual makespan not deterministic: %d vs %d", got, first)
		}
	}
}

// TestSortLeavesInputUntouched: Local Sort reads the caller's slice where it
// lies, so the contract "the input slice is not modified" is now the
// kernel's to keep — across kernels, the uniqueness transformation and the
// external-memory path.
func TestSortLeavesInputUntouched(t *testing.T) {
	spec := workload.Spec{Dist: workload.Zipf, Seed: 5, Span: 1e9}
	for name, cfg := range map[string]Config{
		"radix":        {},
		"introsort":    {Kernel: KernelIntrosort},
		"force-unique": {ForceUnique: true},
		"loser-tree":   {Merge: MergeLoserTree},
		"spilled":      {MemBudget: 1024},
	} {
		w, err := comm.NewWorld(4, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *comm.Comm) error {
			local, err := spec.Rank(c.Rank(), 3000)
			if err != nil {
				return err
			}
			before := append([]uint64(nil), local...)
			if _, err := Sort(c, local, u64, cfg); err != nil {
				return err
			}
			if !slices.Equal(local, before) {
				t.Errorf("%s: rank %d: Sort modified its input", name, c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
