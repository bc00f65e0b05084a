package sortutil

import (
	"cmp"
	"encoding/binary"
	"fmt"
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
	ops   keys.Ops[T]
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
	im := keys.ImageOf(sc.ops)
	width, key := im.Width, im.Of
	for _, n := range radixSizes {
		in := sc.input(uint64(n)+11, n)

		ref := slices.Clone(in)
		refPasses := refRadixSortKeyed(ref, key, width)
		cmp := slices.Clone(in)
		Sort(cmp, sc.less)
		sc.equal(t, "old kernel vs Sort", ref, cmp)

		// In place.
		got := slices.Clone(in)
		passes := RadixSortKeys[T](got, nil, width, im.Codec, nil)
		sc.equal(t, "in place", got, ref)
		if passes != refPasses {
			t.Fatalf("%s n=%d: in place ran %d passes, old kernel %d", sc.name, n, passes, refPasses)
		}

		// Gathered from three runs; the sources must come back untouched.
		src := slices.Clone(in)
		runs := [][]T{src[:n/3], src[n/3 : n/3], src[n/3:]}
		out := make([]T, n)
		passes = RadixSortKeys[T](out, runs, width, im.Codec, &Arena[T]{})
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

// TestRadixPassesGolden pins the returned count — the varying digits, i.e.
// the passes of the plain LSD sort — which prices the sort on the virtual
// clock (simnet.RadixSortCost).  TestRadixPrefixPassesGolden pins what the
// kernel executes.
func TestRadixPassesGolden(t *testing.T) {
	n := 1 << 16
	full := randomSlice(1, n, 0)
	span1e9 := randomSlice(2, n, 1e9)
	equal := make([]uint64, n)
	for i := range equal {
		equal[i] = 0xdeadbeef
	}
	u32 := make([]uint32, n)
	mul256, masked := make([]uint64, n), make([]uint64, n)
	for i, v := range full {
		u32[i] = uint32(v)
		mul256[i] = v &^ 0xff
		masked[i] = v & 0xffff_0000_0000_ffff
	}
	for _, tc := range []struct {
		name string
		run  func() int
		want int
		runs [][]uint64 // the images of a uint64 row, for VaryingDigits
	}{
		{"uint64 full range", func() int { return RadixSortImages(slices.Clone(full), nil, 8, nil) }, 8, [][]uint64{full}},
		{"uint64 span 1e9", func() int { return RadixSortImages(slices.Clone(span1e9), nil, 8, nil) }, 4, [][]uint64{span1e9}},
		{"uint64 all equal", func() int { return RadixSortImages(slices.Clone(equal), nil, 8, nil) }, 0, [][]uint64{equal}},
		{"uint64 all equal, gathered", func() int {
			out := make([]uint64, n)
			p := RadixSortImages(out, [][]uint64{equal[:5], equal[5:]}, 8, nil)
			if !slices.Equal(out, equal) {
				t.Error("constant input not gathered into dst")
			}
			return p
		}, 0, [][]uint64{equal[:5], equal[5:]}},
		{"uint64 multiples of 256", func() int { return RadixSortImages(slices.Clone(mul256), nil, 8, nil) }, 7, [][]uint64{mul256}},
		{"uint64 middle bytes masked", func() int { return RadixSortImages(slices.Clone(masked), nil, 8, nil) }, 4, [][]uint64{masked}},
		{"float64 full range", func() int {
			f := make([]float64, n)
			for i, v := range full {
				f[i] = math.Float64frombits(v)
			}
			return RadixSortKeys[float64](f, nil, 8, keys.Float64{}, nil)
		}, 8, nil},
		{"uint32 full range", func() int { return RadixSortKeys[uint32](slices.Clone(u32), nil, 4, keys.Uint32{}, nil) }, 4, nil},
		{"keyed, span 1e9", func() int {
			return RadixSortFunc(slices.Clone(span1e9), nil, func(v uint64) uint64 { return v }, 8, nil)
		}, 4, nil},
	} {
		if got := tc.run(); got != tc.want {
			t.Errorf("%s: %d passes, want %d", tc.name, got, tc.want)
		}
		if tc.runs != nil {
			if got := VaryingDigits(tc.runs, 8); got != tc.want {
				t.Errorf("%s: VaryingDigits %d, want %d", tc.name, got, tc.want)
			}
		}
	}
}

// TestRadixPrefixPassesGolden is TestRadixPassesGolden's twin for the
// scatter passes actually executed: t of the k varying digits.
func TestRadixPrefixPassesGolden(t *testing.T) {
	equal := make([]uint64, 1<<16)
	for i := range equal {
		equal[i] = 0xdeadbeef
	}
	for _, tc := range []struct {
		name         string
		imgs         []uint64
		wantK, wantT int
	}{
		{"full range, 2^18", randomSlice(1, 1<<18, 0), 8, 3},
		{"full range, 2^16", randomSlice(1, 1<<16, 0), 8, 3},
		{"full range, 1024", randomSlice(1, 1024, 0), 8, 2},
		{"span 1e9, 2^16", randomSlice(2, 1<<16, 1e9), 4, 4},
		{"span 1e9, 8192", randomSlice(2, 8192, 1e9), 4, 4},
		{"32-bit, 2^18", randomSlice(3, 1<<18, 1<<32), 4, 4},
		{"all equal", equal, 0, 0},
		{"correlated top bytes, 2^18", correlatedImages(4, 1<<18, 8), 8, 3},
	} {
		var h digitCounts
		h.add(tc.imgs, 8)
		digits, k := h.active(tc.imgs, len(tc.imgs), 8)
		if got := h.prefixPasses(&digits, k, len(tc.imgs)); k != tc.wantK || got != tc.wantT {
			t.Errorf("%s: %d of %d passes, want %d of %d", tc.name, got, k, tc.wantT, tc.wantK)
		}
	}
}

// correlatedImages returns n images of width bytes whose three top bytes are
// equal to each other (for narrow widths: every byte above the lowest):
// each digit's histogram looks uniform, so the pass chooser expects
// singletons after those digits, yet only 256 prefixes exist and the
// finishing scan meets groups of n/256.
func correlatedImages(seed uint64, n, width int) []uint64 {
	src := prng.NewXoshiro256(seed)
	a := make([]uint64, n)
	for i := range a {
		x := src.Uint64()
		low := max(width-3, 1)
		img := x & (1<<(8*uint(low)) - 1)
		for d := low; d < width; d++ {
			img |= x >> 56 << (8 * uint(d))
		}
		a[i] = img
	}
	return a
}

// tagged is a record for the element+image kernel: its payload is its input
// position, so any instability shows.
type tagged struct {
	img uint64
	at  int
}

// checkRadixEntries sorts imgs (width significant bytes), cut into two runs
// at c, through all three entries — in place and gathering — against
// slices.Sort and, for the element+image kernel, slices.SortStableFunc.
func checkRadixEntries(t *testing.T, imgs []uint64, c, width int) {
	t.Helper()
	n := len(imgs)
	want := slices.Clone(imgs)
	slices.Sort(want)
	orig := slices.Clone(imgs)
	runs := [][]uint64{imgs[:c], imgs[c:]}

	out := make([]uint64, n)
	k := RadixSortImages(out, runs, width, nil)
	if !slices.Equal(out, want) {
		t.Fatalf("RadixSortImages (gather at %d, width %d) diverges from slices.Sort", c, width)
	}
	if !slices.Equal(imgs, orig) {
		t.Fatalf("RadixSortImages (gather at %d, width %d) modified its runs", c, width)
	}
	if v := VaryingDigits(runs, width); v != k {
		t.Fatalf("VaryingDigits (cut at %d, width %d) = %d, RadixSortImages returned %d", c, width, v, k)
	}
	sorted := [][]uint64{slices.Sorted(slices.Values(imgs[:c])), slices.Sorted(slices.Values(imgs[c:]))}
	sortedOrig := slices.Concat(sorted...)
	merged := MergeImages(make([]uint64, n), make([]uint64, n), sorted)
	if !slices.Equal(merged, want) {
		t.Fatalf("MergeImages (cut at %d) diverges from slices.Sort", c)
	}
	if !slices.Equal(slices.Concat(sorted...), sortedOrig) {
		t.Fatalf("MergeImages (cut at %d) modified its runs", c)
	}
	inPlace := slices.Clone(imgs)
	RadixSortImages(inPlace, nil, width, nil)
	if !slices.Equal(inPlace, want) {
		t.Fatalf("RadixSortImages (in place, width %d) diverges from slices.Sort", width)
	}

	fl := make([]float64, n)
	keys.Float64{}.RadixKeys(fl, imgs)
	got := make([]uint64, n)
	flOut := make([]float64, n)
	RadixSortKeys[float64](flOut, [][]float64{fl[:c], fl[c:]}, width, keys.Float64{}, nil)
	keys.Float64{}.RadixImages(got, flOut)
	if !slices.Equal(got, want) {
		t.Fatalf("RadixSortKeys (gather at %d, width %d) diverges from slices.Sort", c, width)
	}
	RadixSortKeys[float64](fl, nil, width, keys.Float64{}, nil)
	keys.Float64{}.RadixImages(got, fl)
	if !slices.Equal(got, want) {
		t.Fatalf("RadixSortKeys (in place, width %d) diverges from slices.Sort", width)
	}

	recs := make([]tagged, n)
	for i, v := range imgs {
		recs[i] = tagged{v, i}
	}
	wantRecs := slices.Clone(recs)
	slices.SortStableFunc(wantRecs, func(a, b tagged) int { return cmp.Compare(a.img, b.img) })
	key := func(r tagged) uint64 { return r.img }
	outRecs := make([]tagged, n)
	RadixSortFunc(outRecs, [][]tagged{recs[:c], recs[c:]}, key, width, nil)
	if !slices.Equal(outRecs, wantRecs) {
		t.Fatalf("RadixSortFunc (gather at %d, width %d) is not the stable order", c, width)
	}
	RadixSortFunc(recs, nil, key, width, nil)
	if !slices.Equal(recs, wantRecs) {
		t.Fatalf("RadixSortFunc (in place, width %d) is not the stable order", width)
	}
}

// TestRadixCorrelatedDigits: inputs on which the independence estimate is as
// wrong as it can be.  The finishing scan must order the groups whatever
// their size: below and above the insertion bound, every width.
func TestRadixCorrelatedDigits(t *testing.T) {
	for _, n := range []int{2, 50, 100, 5000, 1 << 16, 1 << 18} {
		for width := 1; width <= 8; width++ {
			if n > 5000 && width != 8 && width != 5 {
				continue
			}
			checkRadixEntries(t, correlatedImages(uint64(n+width), n, width), n/3, width)
		}
	}
}

// TestRadixGroupShapes: the shapes the finishing scan has to get right on
// inputs where the passes stop early — heavy prefixes over a sparse tail,
// floods of one image inside a group, groups at the insertion bound.
func TestRadixGroupShapes(t *testing.T) {
	const n = 1 << 14
	base := func(seed uint64) []uint64 { return randomSlice(seed, n, 0) } // t = 2 or 3 of 8
	plant := func(a []uint64, at, count int, prefix uint64, low func(i int) uint64) {
		for i := range count {
			a[(at+i*13)%len(a)] = prefix<<40 | low(i)&(1<<40-1)
		}
	}
	src := prng.NewXoshiro256(5)
	random := func(int) uint64 { return src.Uint64() }
	shapes := map[string][]uint64{}

	heavy := base(1)
	for p := range uint64(3) {
		plant(heavy, int(p)*5000, 3000, 0x10_0000*(p+1), random)
	}
	shapes["heavy prefixes, sparse tail"] = heavy

	flood := base(2)
	plant(flood, 0, 2000, 0xabcdef, func(i int) uint64 { return uint64(i % 3) })
	shapes["duplicate flood in one group"] = flood

	for _, size := range []int{insertionGroup - 1, insertionGroup, insertionGroup + 1, 300} {
		a := base(uint64(size))
		plant(a, 7, size, 0x123456, random)
		plant(a, 1, size, 0xffffff, random) // the last group ends the array
		plant(a, 3, size, 0, random)        // the first one starts it
		shapes[fmt.Sprintf("groups of %d", size)] = a
	}

	descending := base(3)
	plant(descending, 0, insertionGroup, 0x777777, func(i int) uint64 { return uint64(1000 - i) })
	shapes["descending group"] = descending

	for name, a := range shapes {
		t.Run(name, func(t *testing.T) { checkRadixEntries(t, a, len(a)/2, 8) })
	}
}

// TestRadixFinishers drives the group scan and both finishers directly,
// where the group layout is exact: one group spanning the array, groups at
// both ends, singletons only, two images.
func TestRadixFinishers(t *testing.T) {
	src := prng.NewXoshiro256(8)
	for name, sizes := range map[string][]int{
		"one group is the array": {1000},
		"two images":             {2},
		"singletons only":        {1, 1, 1, 1, 1},
		"at the insertion bound": {insertionGroup, 1, insertionGroup + 1, 1, 1, insertionGroup - 1},
		"groups at both ends":    {3, 1, 1, 400, 1, 2},
		"one image":              {1},
		"nothing":                {},
	} {
		for _, low := range []int{1, 3, 5} {
			var a []uint64
			for g, size := range sizes {
				for range size {
					a = append(a, uint64(g+1)<<(8*uint(low))|src.Uint64()&(1<<(8*uint(low))-1))
				}
			}
			want := slices.Clone(a)
			slices.Sort(want)

			groups := 0
			for lo, hi := nextGroup(a, 0, 8*uint(low)); lo < len(a); lo, hi = nextGroup(a, hi, 8*uint(low)) {
				if hi-lo < 2 || a[lo]>>(8*uint(low)) != a[hi-1]>>(8*uint(low)) {
					t.Fatalf("%s, low %d: nextGroup returned [%d, %d)", name, low, lo, hi)
				}
				groups++
			}
			wantGroups := 0
			for _, size := range sizes {
				if size > 1 {
					wantGroups++
				}
			}
			if groups != wantGroups {
				t.Fatalf("%s, low %d: nextGroup found %d groups, want %d", name, low, groups, wantGroups)
			}

			recs := make([]tagged, len(a))
			for i, v := range a {
				recs[i] = tagged{v, i}
			}
			wantRecs := slices.Clone(recs)
			slices.SortStableFunc(wantRecs, func(x, y tagged) int { return cmp.Compare(x.img, y.img) })
			finishKeyed(recs, make([]tagged, len(a)), slices.Clone(a), make([]uint64, len(a)), low, new(digitCounts))
			if !slices.Equal(recs, wantRecs) {
				t.Fatalf("%s, low %d: finishKeyed is not the stable order", name, low)
			}

			finishImages(a, make([]uint64, len(a)), low, new(digitCounts))
			if !slices.Equal(a, want) {
				t.Fatalf("%s, low %d: finishImages diverges from slices.Sort", name, low)
			}
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
		"sixteen runs":       {900, 1, 2000, 37, 4096, 4096, 5, 1500, 2, 3000, 700, 64, 65, 1, 4000, 333},
		"seventeen runs":     {900, 1, 2000, 37, 4096, 4096, 5, 1500, 2, 3000, 700, 64, 65, 1, 4000, 333, 10},
		"sixteen of twenty":  {0, 512, 512, 0, 512, 512, 512, 512, 512, 512, 0, 512, 512, 512, 512, 512, 512, 0, 512, 512},
	}
	orig := slices.Clone(data)
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
		if !slices.Equal(data, orig) {
			t.Fatalf("%s: a gathering sort modified its runs", name)
		}

		sorted := make([][]uint64, len(runs))
		for i, r := range runs {
			sorted[i] = slices.Sorted(slices.Values(r))
		}
		sortedOrig := slices.Concat(sorted...)
		outM := MergeImages(make([]uint64, off), make([]uint64, off), sorted)
		if !slices.Equal(outM, want) {
			t.Errorf("%s: MergeImages wrong", name)
		}
		if !slices.Equal(slices.Concat(sorted...), sortedOrig) {
			t.Errorf("%s: MergeImages modified its runs", name)
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
	for name, in := range map[string][]uint64{
		"full range": randomSlice(3, 4096, 0),
		"correlated": correlatedImages(3, 1<<15, 8), // groups of 128: the finishers re-enter the kernel
	} {
		t.Run(name, func(t *testing.T) { radixWarmArenaAllocatesNothing(t, in) })
	}
}

func radixWarmArenaAllocatesNothing(t *testing.T, in []uint64) {
	n := len(in)
	work := make([]uint64, n)
	out := make([]uint64, n)
	runs := [][]uint64{work[:100], work[100:]}
	fl := make([]float64, n)
	ar := &Arena[uint64]{}
	arF := &Arena[float64]{}
	ident := func(v uint64) uint64 { return v }
	sorted := make([][]uint64, 16)
	for i := range sorted {
		sorted[i] = slices.Sorted(slices.Values(in[i*n/16 : (i+1)*n/16]))
	}
	sortedOrig := slices.Concat(sorted...)
	mout := make([]uint64, n) // MergeImages' own buffer: other entries write out
	for name, sortOnce := range map[string]func(){
		"images in place":        func() { copy(work, in); RadixSortImages(work, nil, 8, ar) },
		"images gathered":        func() { copy(work, in); RadixSortImages(out, runs, 8, ar) },
		"images merged, 16 runs": func() { MergeImages(mout, ar.Keys(n), sorted) },
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
	if !slices.Equal(slices.Concat(sorted...), sortedOrig) {
		t.Error("MergeImages modified its runs")
	}
	slices.Sort(sortedOrig)
	if !slices.Equal(mout, sortedOrig) {
		t.Error("MergeImages through a warm arena: wrong order")
	}
}

// FuzzRadixImagesMatchSlicesSort: arbitrary bytes as images, cut into runs
// at an arbitrary point, through both image-only entries and the
// element+image kernel, against slices.Sort on the images (and the stable
// order of tagged records).  A non-zero tops forces the bytes above the two
// lowest of every image to one of at most four patterns, so groups larger
// than the insertion bound survive the prefix passes.
func FuzzRadixImagesMatchSlicesSort(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(0), uint8(8), uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf8, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(1), uint8(8), uint8(0))
	f.Add(make([]byte, 64), uint16(3), uint8(4), uint8(0))
	bulk := make([]byte, 8*400)
	for i, v := range randomSlice(6, 400, 0) {
		binary.LittleEndian.PutUint64(bulk[8*i:], v)
	}
	f.Add(bulk, uint16(100), uint8(7), uint8(4))
	f.Add(bulk[:8*60], uint16(0), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, cut uint16, width, tops uint8) {
		n := len(raw) / 8
		w := int(width%8) + 1
		imgs := make([]uint64, n)
		for i := range imgs {
			imgs[i] = binary.LittleEndian.Uint64(raw[8*i:])
			if tops%5 != 0 {
				pattern := imgs[i] >> 16 % uint64(tops%5) * 0x0101_0101_0101
				imgs[i] = pattern<<16 | imgs[i]&0xffff
			}
			if w < 8 {
				imgs[i] &= 1<<(8*uint(w)) - 1 // only w bytes are significant
			}
		}
		c := 0
		if n > 0 {
			c = int(cut) % (n + 1)
		}
		checkRadixEntries(t, imgs, c, w)
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
