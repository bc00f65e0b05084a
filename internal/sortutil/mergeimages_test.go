package sortutil

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"dhsort/internal/xmath"
)

// mergeTwoCases is the property table both two-way merge kernels run:
// mergeTwoImages over the uint64 images, and mergeTwoU128 — the store's
// block merge kernel — over the same images embedded in 128 bits.  Every
// case merges in both argument orders and must equal slices.Sort of the
// concatenation, leaving its inputs as they were.
func mergeTwoCases() []struct {
	name string
	a, b []uint64
} {
	cases := []struct {
		name string
		a, b []uint64
	}{
		{"both empty", nil, nil},
		{"one empty", nil, []uint64{1, 2, 3}},
		{"singletons equal", []uint64{5}, []uint64{5}},
		{"singletons", []uint64{9}, []uint64{2}},
		{"all equal", slices.Repeat([]uint64{7}, 33), slices.Repeat([]uint64{7}, 20)},
		{"disjoint", []uint64{1, 2, 3, 4}, []uint64{10, 11, 12}},
		{"interleaved", []uint64{0, 2, 4, 6, 8, 10}, []uint64{1, 3, 5, 7, 9, 11}},
		{"ties at both ends", []uint64{0, 0, 5, 9, 9}, []uint64{0, 4, 9, 9, 9}},
		{"extremes", []uint64{0, 1 << 63, ^uint64(0)}, []uint64{0, ^uint64(0) - 1, ^uint64(0)}},
		{"long and short", []uint64{1, 3, 5, 7, 9, 11, 13, 15, 17}, []uint64{6}},
	}
	rng := rand.New(rand.NewSource(1))
	for i := range 40 {
		run := func() []uint64 {
			r := make([]uint64, rng.Intn(300))
			for j := range r {
				r[j] = rng.Uint64() >> (rng.Intn(4) * 20) // narrow ranges repeat keys
			}
			slices.Sort(r)
			return r
		}
		cases = append(cases, struct {
			name string
			a, b []uint64
		}{fmt.Sprintf("random %d", i), run(), run()})
	}
	return cases
}

// u128Embeddings are order isomorphisms of uint64 into 128 bits: the key in
// the high word, split across both words, and with its low bit as the low
// word's top bit (where a wrong borrow shows).
var u128Embeddings = map[string]func(uint64) xmath.U128{
	"high word": func(x uint64) xmath.U128 { return xmath.U128{Hi: x} },
	"split":     func(x uint64) xmath.U128 { return xmath.U128{Hi: x >> 3, Lo: x & 7} },
	"low top":   func(x uint64) xmath.U128 { return xmath.U128{Hi: x >> 1, Lo: x << 63} },
}

func TestMergeTwoKernels(t *testing.T) {
	for _, c := range mergeTwoCases() {
		want := slices.Sorted(slices.Values(slices.Concat(c.a, c.b)))
		for _, in := range [][2][]uint64{{c.a, c.b}, {c.b, c.a}} {
			a, b := slices.Clone(in[0]), slices.Clone(in[1])
			out := make([]uint64, len(want))
			mergeTwoImages(out, a, b)
			if !slices.Equal(out, want) || !slices.Equal(a, in[0]) || !slices.Equal(b, in[1]) {
				t.Fatalf("%s: mergeTwoImages(%v, %v) = %v, want %v", c.name, in[0], in[1], out, want)
			}
			for name, embed := range u128Embeddings {
				a, b := embedAll(in[0], embed), embedAll(in[1], embed)
				out := make([]xmath.U128, len(want))
				mergeTwoU128(out, a, b)
				if !slices.Equal(out, embedAll(want, embed)) ||
					!slices.Equal(a, embedAll(in[0], embed)) || !slices.Equal(b, embedAll(in[1], embed)) {
					t.Fatalf("%s, %s: mergeTwoU128(%v, %v) = %v", c.name, name, in[0], in[1], out)
				}
			}
		}
	}
}

func embedAll(xs []uint64, embed func(uint64) xmath.U128) []xmath.U128 {
	out := make([]xmath.U128, len(xs))
	for i, x := range xs {
		out[i] = embed(x)
	}
	return out
}

// runKey is a key with the run and position it came from, for MergeFunc:
// equal keys must leave in run order, and in their run's order within it.
type runKey struct {
	key      uint64
	run, pos int
}

func lessRunKey(x, y runKey) bool { return x.key < y.key }

// TestMergeImagesOutOfItsBuffer: runs laid out consecutively in a, as the
// exchange lands them, merge into a prefix of a or b — b after an odd number
// of levels (the first moves every run out of a), a after an even one — at
// every run count from none to past the 16 the stack holds, empty runs
// included.  Both instances of the tree run: MergeImages must equal
// slices.Sort of the concatenation, MergeFunc, over the same keys runKey
// with their run and position, its stable sort.  Up to 16 runs, neither
// allocates.
func TestMergeImagesOutOfItsBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for k := 0; k <= 20; k++ {
		var lens []int
		total := 0
		for range k {
			n := rng.Intn(50) * (rng.Intn(4) / 3) // a quarter of the runs non-empty
			if rng.Intn(2) == 0 {
				n = rng.Intn(200)
			}
			lens = append(lens, n)
			total += n
		}
		a, b := make([]uint64, total+3), make([]uint64, total+5)
		ta, tb := make([]runKey, total+3), make([]runKey, total+5)
		runs, truns := make([][]uint64, k), make([][]runKey, k)
		off, nonEmpty := 0, 0
		for i, n := range lens {
			runs[i], truns[i] = a[off:off+n], ta[off:off+n]
			for j := range runs[i] {
				runs[i][j] = rng.Uint64() >> (rng.Intn(4) * 20)
				if rng.Intn(3) == 0 {
					runs[i][j] %= 8 // keys repeated across runs
				}
			}
			slices.Sort(runs[i])
			for j, v := range runs[i] {
				truns[i][j] = runKey{key: v, run: i, pos: j}
			}
			off += n
			if n > 0 {
				nonEmpty++
			}
		}
		want := slices.Sorted(slices.Values(a[:total]))
		twant := slices.Clone(ta[:total])
		slices.SortStableFunc(twant, func(x, y runKey) int { return cmp.Compare(x.key, y.key) })
		levels := max(1, bits.Len(uint(max(nonEmpty, 1)-1)))
		landed, tlanded := slices.Clone(a), slices.Clone(ta)
		got, tgot := MergeImages(a, b, runs), MergeFunc(ta, tb, truns, lessRunKey)
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d: MergeImages = %v, want %v", k, got, want)
		}
		if !slices.Equal(tgot, twant) {
			t.Fatalf("k=%d: MergeFunc = %v, want %v", k, tgot, twant)
		}
		last := (levels + 1) % 2 // 0: b, 1: a
		if in := [2][]uint64{b, a}[last]; total > 0 && &got[0] != &in[0] {
			t.Errorf("k=%d: %d non-empty runs take %d levels, but MergeImages' result is not at the start of the buffer the last one writes", k, nonEmpty, levels)
		}
		if in := [2][]runKey{tb, ta}[last]; total > 0 && &tgot[0] != &in[0] {
			t.Errorf("k=%d: %d non-empty runs take %d levels, but MergeFunc's result is not at the start of the buffer the last one writes", k, nonEmpty, levels)
		}
		if k > 16 {
			continue
		}
		if allocs := testing.AllocsPerRun(5, func() { copy(a, landed); MergeImages(a, b, runs) }); allocs != 0 {
			t.Errorf("k=%d: MergeImages allocates %v times, want 0", k, allocs)
		}
		if allocs := testing.AllocsPerRun(5, func() { copy(ta, tlanded); MergeFunc(ta, tb, truns, lessRunKey) }); allocs != 0 {
			t.Errorf("k=%d: MergeFunc allocates %v times, want 0", k, allocs)
		}
	}
}
