package sortutil

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dhsort/internal/keys"
	"dhsort/internal/prng"
)

// refRadixSortKeyed is the kernel this package shipped before the image-only
// one: one histogram per digit, element and cached image scattered together.
// Kept as the reference the new kernels must match bit for bit, passes
// included.
func refRadixSortKeyed[T any](a []T, key func(T) uint64, width int) int {
	n := len(a)
	if n < 2 {
		return 0
	}
	buf := make([]T, n)
	ks, kbuf := make([]uint64, n), make([]uint64, n)
	for i, v := range a {
		ks[i] = key(v)
	}
	src, dst := a, buf
	ksrc, kdst := ks, kbuf
	passes := 0
	for d := 0; d < width; d++ {
		shift := uint(8 * d)
		var counts [256]int
		for _, k := range ksrc {
			counts[(k>>shift)&0xff]++
		}
		if counts[(ksrc[0]>>shift)&0xff] == n {
			continue
		}
		pos := 0
		for i := range counts {
			counts[i], pos = pos, pos+counts[i]
		}
		for i, k := range ksrc {
			b := (k >> shift) & 0xff
			dst[counts[b]] = src[i]
			kdst[counts[b]] = k
			counts[b]++
		}
		src, dst = dst, src
		ksrc, kdst = kdst, ksrc
		passes++
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
	return passes
}

// radixSizes straddle the one-bucket-per-key and the multi-page regimes.
var radixSizes = []int{0, 1, 2, 255, 256, 257, 65537}

// scalarCase drives one scalar key type through every kernel entry.
type scalarCase[T any] struct {
	name  string
	ops   keys.RadixImageOps[T]
	less  func(a, b T) bool
	bits  func(T) uint64 // the key's exact representation
	edge  []T            // values every input of size >= len(edge) contains
	fromU func(uint64) T
}

func (sc scalarCase[T]) input(seed uint64, n int) []T {
	src := prng.NewXoshiro256(seed)
	a := make([]T, n)
	for i := range a {
		a[i] = sc.fromU(src.Uint64())
	}
	if n >= len(sc.edge) {
		for i, v := range sc.edge {
			a[(i*7919)%n] = v
		}
	}
	return a
}

func (sc scalarCase[T]) equal(t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s: length %d, want %d", sc.name, what, len(got), len(want))
	}
	for i := range want {
		if sc.bits(got[i]) != sc.bits(want[i]) {
			t.Fatalf("%s: %s: index %d holds %#x, want %#x", sc.name, what, i, sc.bits(got[i]), sc.bits(want[i]))
		}
	}
}

func (sc scalarCase[T]) run(t *testing.T) {
	var zero T
	_, width := sc.ops.RadixKey(zero)
	key := func(v T) uint64 { k, _ := sc.ops.RadixKey(v); return k }
	for _, n := range radixSizes {
		in := sc.input(uint64(n)+11, n)

		ref := slices.Clone(in)
		refPasses := refRadixSortKeyed(ref, key, width)
		cmp := slices.Clone(in)
		Sort(cmp, sc.less)
		sc.equal(t, "old kernel vs Sort", ref, cmp)

		// In place.
		got := slices.Clone(in)
		passes := RadixSortKeys[T](got, nil, width, sc.ops, nil)
		sc.equal(t, "in place", got, ref)
		if passes != refPasses {
			t.Fatalf("%s n=%d: in place ran %d passes, old kernel %d", sc.name, n, passes, refPasses)
		}

		// Gathered from three runs; the sources must come back untouched.
		src := slices.Clone(in)
		runs := [][]T{src[:n/3], src[n/3 : n/3], src[n/3:]}
		out := make([]T, n)
		passes = RadixSortKeys[T](out, runs, width, sc.ops, &Arena[T]{})
		sc.equal(t, "gathered", out, ref)
		sc.equal(t, "gather source", src, in)
		if passes != refPasses {
			t.Fatalf("%s n=%d: gather ran %d passes, old kernel %d", sc.name, n, passes, refPasses)
		}
		if width == 4 && passes > 4 {
			t.Fatalf("%s n=%d: 32-bit keys ran %d passes", sc.name, n, passes)
		}

		// The element+image kernel on the same keys.
		got = slices.Clone(in)
		if p := RadixSortFunc(got, nil, key, width, nil); p != refPasses {
			t.Fatalf("%s n=%d: keyed kernel ran %d passes, old kernel %d", sc.name, n, p, refPasses)
		}
		sc.equal(t, "keyed kernel", got, ref)
	}
}

// TestRadixScalarTypesBitIdentical: for all six scalar key types the
// image-only kernel, in place and gathering, reproduces the old kernel and
// the comparison sort bit for bit — NaN payloads, signed zeros, infinities
// and the integer extremes included — with the same pass count.
func TestRadixScalarTypesBitIdentical(t *testing.T) {
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0xfff0000000000123) // negative, signalling payload
	scalarCase[uint64]{
		name: "uint64", ops: keys.Uint64{}, less: keys.Uint64{}.Less,
		bits:  func(v uint64) uint64 { return v },
		edge:  []uint64{0, 1, math.MaxUint64, 1 << 63},
		fromU: func(u uint64) uint64 { return u },
	}.run(t)
	scalarCase[int64]{
		name: "int64", ops: keys.Int64{}, less: keys.Int64{}.Less,
		bits:  func(v int64) uint64 { return uint64(v) },
		edge:  []int64{math.MinInt64, math.MaxInt64, 0, -1},
		fromU: func(u uint64) int64 { return int64(u) },
	}.run(t)
	scalarCase[float64]{
		name: "float64", ops: keys.Float64{}, less: keys.Float64{}.Less,
		bits:  math.Float64bits,
		edge:  []float64{nan1, nan2, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN()},
		fromU: math.Float64frombits,
	}.run(t)
	scalarCase[uint32]{
		name: "uint32", ops: keys.Uint32{}, less: keys.Uint32{}.Less,
		bits:  func(v uint32) uint64 { return uint64(v) },
		edge:  []uint32{0, math.MaxUint32},
		fromU: func(u uint64) uint32 { return uint32(u) },
	}.run(t)
	scalarCase[int32]{
		name: "int32", ops: keys.Int32{}, less: keys.Int32{}.Less,
		bits:  func(v int32) uint64 { return uint64(uint32(v)) },
		edge:  []int32{math.MinInt32, math.MaxInt32, 0, -1},
		fromU: func(u uint64) int32 { return int32(u) },
	}.run(t)
	scalarCase[float32]{
		name: "float32", ops: keys.Float32{}, less: keys.Float32{}.Less,
		bits: func(v float32) uint64 { return uint64(math.Float32bits(v)) },
		edge: []float32{math.Float32frombits(0x7fc00001), math.Float32frombits(0xff800123),
			float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)), float32(math.Inf(-1))},
		fromU: func(u uint64) float32 { return math.Float32frombits(uint32(u)) },
	}.run(t)
}

// TestRadixSortImagesMatchesOldKernel covers the self-image entry (uint64
// keys sorted where they lie) at every size and a few spans, odd and even
// pass counts, in place and gathering.
func TestRadixSortImagesMatchesOldKernel(t *testing.T) {
	ident := func(v uint64) uint64 { return v }
	for _, n := range append(radixSizes, 1000, 100000) {
		for _, span := range []uint64{0, 1, 256, 1 << 20, 1 << 40} {
			in := randomSlice(uint64(n)+span, n, span)
			ref := slices.Clone(in)
			refPasses := refRadixSortKeyed(ref, ident, 8)

			got := slices.Clone(in)
			if p := RadixSortImages(got, nil, 8, nil); p != refPasses {
				t.Fatalf("n=%d span=%d: in place ran %d passes, old kernel %d", n, span, p, refPasses)
			}
			if !slices.Equal(got, ref) {
				t.Fatalf("n=%d span=%d: in place diverges from the old kernel", n, span)
			}

			src := slices.Clone(in)
			out := make([]uint64, n)
			if p := RadixSortImages(out, [][]uint64{src[:n/2], src[n/2:]}, 8, nil); p != refPasses {
				t.Fatalf("n=%d span=%d: gather ran %d passes, old kernel %d", n, span, p, refPasses)
			}
			if !slices.Equal(out, ref) {
				t.Fatalf("n=%d span=%d: gather diverges from the old kernel", n, span)
			}
			if !slices.Equal(src, in) {
				t.Fatalf("n=%d span=%d: gather modified its source", n, span)
			}
		}
	}
}

// TestRadixPassesGolden pins the executed pass count, which prices the sort
// on the virtual clock (simnet.RadixSortCost).
func TestRadixPassesGolden(t *testing.T) {
	n := 1 << 16
	full := randomSlice(1, n, 0)
	span1e9 := randomSlice(2, n, 1e9)
	equal := make([]uint64, n)
	for i := range equal {
		equal[i] = 0xdeadbeef
	}
	u32 := make([]uint32, n)
	for i, v := range full {
		u32[i] = uint32(v)
	}
	for _, tc := range []struct {
		name string
		run  func() int
		want int
	}{
		{"uint64 full range", func() int { return RadixSortImages(slices.Clone(full), nil, 8, nil) }, 8},
		{"uint64 span 1e9", func() int { return RadixSortImages(slices.Clone(span1e9), nil, 8, nil) }, 4},
		{"uint64 all equal", func() int { return RadixSortImages(slices.Clone(equal), nil, 8, nil) }, 0},
		{"uint64 all equal, gathered", func() int {
			out := make([]uint64, n)
			p := RadixSortImages(out, [][]uint64{equal[:5], equal[5:]}, 8, nil)
			if !slices.Equal(out, equal) {
				t.Error("constant input not gathered into dst")
			}
			return p
		}, 0},
		{"float64 full range", func() int {
			f := make([]float64, n)
			for i, v := range full {
				f[i] = math.Float64frombits(v)
			}
			return RadixSortKeys[float64](f, nil, 8, keys.Float64{}, nil)
		}, 8},
		{"uint32 full range", func() int { return RadixSortKeys[uint32](slices.Clone(u32), nil, 4, keys.Uint32{}, nil) }, 4},
		{"keyed, span 1e9", func() int {
			return RadixSortFunc(slices.Clone(span1e9), nil, func(v uint64) uint64 { return v }, 8, nil)
		}, 4},
	} {
		if got := tc.run(); got != tc.want {
			t.Errorf("%s: %d passes, want %d", tc.name, got, tc.want)
		}
	}
}

// TestRadixGatherRunShapes: empty runs anywhere, a single run, no keys at
// all, and one huge run among slivers.
func TestRadixGatherRunShapes(t *testing.T) {
	data := randomSlice(99, 70000, 0)
	shapes := map[string][]int{
		"zero total":         {0, 0, 0},
		"no runs":            {},
		"single run":         {5000},
		"single key":         {0, 1, 0},
		"empty runs between": {0, 300, 0, 0, 4000, 0},
		"very unequal":       {1, 65536, 2, 0, 3},
		"odd passes worth":   {3, 3}, // six keys: some digits constant
	}
	for name, lens := range shapes {
		var runs [][]uint64
		var f64runs [][]float64
		off := 0
		for _, l := range lens {
			runs = append(runs, data[off:off+l])
			f := make([]float64, l)
			for i, v := range data[off : off+l] {
				f[i] = math.Float64frombits(v)
			}
			f64runs = append(f64runs, f)
			off += l
		}
		if runs == nil {
			runs, f64runs = [][]uint64{}, [][]float64{} // nil would mean "in place"
		}
		want := slices.Clone(data[:off])
		slices.Sort(want)

		out := make([]uint64, off)
		RadixSortImages(out, runs, 8, nil)
		if !slices.Equal(out, want) {
			t.Errorf("%s: RadixSortImages wrong", name)
		}

		wantF := slices.Concat(f64runs...)
		Sort(wantF, keys.Float64{}.Less)
		outF := make([]float64, off)
		RadixSortKeys[float64](outF, f64runs, 8, keys.Float64{}, nil)
		for i := range wantF {
			if math.Float64bits(outF[i]) != math.Float64bits(wantF[i]) {
				t.Errorf("%s: RadixSortKeys wrong at %d", name, i)
				break
			}
		}

		outK := make([]uint64, off)
		RadixSortFunc(outK, runs, func(v uint64) uint64 { return v }, 8, nil)
		if !slices.Equal(outK, want) {
			t.Errorf("%s: RadixSortFunc wrong", name)
		}
	}
}

func TestRadixSortFuncStable(t *testing.T) {
	src := prng.NewSplitMix64(9)
	a := make([]pair, 20000)
	for i := range a {
		a[i] = pair{k: int(prng.Uint64n(src, 64)), tag: i}
	}
	key := func(p pair) uint64 { return uint64(p.k) }
	stable := func(what string, s []pair) {
		t.Helper()
		for i := 1; i < len(s); i++ {
			if s[i-1].k > s[i].k || (s[i-1].k == s[i].k && s[i-1].tag > s[i].tag) {
				t.Fatalf("%s: radix sort must be stable", what)
			}
		}
	}
	// Gathered: equal keys keep run order, earlier runs first.
	out := make([]pair, len(a))
	RadixSortFunc(out, [][]pair{a[:7], a[7:12000], a[12000:]}, key, 1, nil)
	stable("gathered", out)
	RadixSortFunc(a, nil, key, 1, nil)
	stable("in place", a)
}

func TestRadixSortFuncWidthClamp(t *testing.T) {
	a := []uint64{3, 1, 2}
	RadixSortFunc(a, nil, func(v uint64) uint64 { return v }, 0, nil) // clamps to 1
	if !IsSorted(a, lessU64) {
		t.Fatal("width clamp broke sorting")
	}
	b := []uint64{1 << 60, 1, 1 << 40}
	RadixSortFunc(b, nil, func(v uint64) uint64 { return v }, 99, nil) // clamps to 8
	if !IsSorted(b, lessU64) {
		t.Fatal("width clamp broke sorting")
	}
}

func TestRadixMatchesIntrosortQuick(t *testing.T) {
	f := func(a []uint64) bool {
		b := append([]uint64(nil), a...)
		Sort(b, lessU64)
		RadixSortUint64(a)
		return slices.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRadixWarmArenaAllocatesNothing: once the arena has grown to the input
// size, a sort through it must not touch the heap — in place or gathering,
// image-only or element+image.
func TestRadixWarmArenaAllocatesNothing(t *testing.T) {
	const n = 4096
	in := randomSlice(3, n, 0)
	work := make([]uint64, n)
	out := make([]uint64, n)
	runs := [][]uint64{work[:100], work[100:]}
	fl := make([]float64, n)
	ar := &Arena[uint64]{}
	arF := &Arena[float64]{}
	ident := func(v uint64) uint64 { return v }
	for name, sortOnce := range map[string]func(){
		"images in place": func() { copy(work, in); RadixSortImages(work, nil, 8, ar) },
		"images gathered": func() { copy(work, in); RadixSortImages(out, runs, 8, ar) },
		"keys in place": func() {
			for i, v := range in {
				fl[i] = float64(v)
			}
			RadixSortKeys[float64](fl, nil, 8, keys.Float64{}, arF)
		},
		"keyed in place": func() { copy(work, in); RadixSortFunc(work, nil, ident, 8, ar) },
		"keyed gathered": func() { copy(work, in); RadixSortFunc(out, runs, ident, 8, ar) },
	} {
		sortOnce() // warm the arena
		if allocs := testing.AllocsPerRun(10, sortOnce); allocs != 0 {
			t.Errorf("%s: %v allocations per sort through a warm arena, want 0", name, allocs)
		}
	}
}

// FuzzRadixImagesMatchSlicesSort: arbitrary bytes as images, cut into runs
// at an arbitrary point, through both image-only entries and the
// element+image kernel, against slices.Sort on the images.
func FuzzRadixImagesMatchSlicesSort(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(0), uint8(8))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf8, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(1), uint8(8))
	f.Add(make([]byte, 64), uint16(3), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, cut uint16, width uint8) {
		n := len(raw) / 8
		w := int(width%8) + 1
		imgs := make([]uint64, n)
		for i := range imgs {
			imgs[i] = binary.LittleEndian.Uint64(raw[8*i:])
			if w < 8 {
				imgs[i] &= 1<<(8*uint(w)) - 1 // only w bytes are significant
			}
		}
		want := slices.Clone(imgs)
		slices.Sort(want)
		c := 0
		if n > 0 {
			c = int(cut) % (n + 1)
		}
		runs := [][]uint64{imgs[:c], imgs[c:]}

		out := make([]uint64, n)
		RadixSortImages(out, runs, w, nil)
		if !slices.Equal(out, want) {
			t.Fatalf("RadixSortImages (gather at %d, width %d) diverges from slices.Sort", c, w)
		}
		inPlace := slices.Clone(imgs)
		RadixSortImages(inPlace, nil, w, nil)
		if !slices.Equal(inPlace, want) {
			t.Fatalf("RadixSortImages (in place, width %d) diverges from slices.Sort", w)
		}

		fl := make([]float64, n)
		keys.Float64{}.RadixKeys(fl, imgs)
		flOut := make([]float64, n)
		RadixSortKeys[float64](flOut, [][]float64{fl[:c], fl[c:]}, w, keys.Float64{}, nil)
		got := make([]uint64, n)
		keys.Float64{}.RadixImages(got, flOut)
		if !slices.Equal(got, want) {
			t.Fatalf("RadixSortKeys (gather at %d, width %d) diverges from slices.Sort", c, w)
		}

		keyed := slices.Clone(imgs)
		RadixSortFunc(keyed, nil, func(v uint64) uint64 { return v }, w, nil)
		if !slices.Equal(keyed, want) {
			t.Fatalf("RadixSortFunc (width %d) diverges from slices.Sort", w)
		}
	})
}

func TestRadixSortUint64(t *testing.T) {
	for _, n := range []int{0, 1, 2, 255, 256, 1000, 100000} {
		for _, span := range []uint64{0, 1, 256, 1 << 20} {
			a := randomSlice(uint64(n)+span, n, span)
			want := append([]uint64(nil), a...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			RadixSortUint64(a)
			if !slices.Equal(a, want) {
				t.Fatalf("n=%d span=%d: mismatch", n, span)
			}
		}
	}
}
