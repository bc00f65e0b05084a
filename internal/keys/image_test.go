package keys

import (
	"math"
	"testing"
	"testing/quick"

	"dhsort/internal/xmath"
)

// imageShape is an Image with its functions reduced to whether they are set.
type imageShape struct {
	width       int
	shift       uint
	of, codec   bool
	self        bool
	suffix      bool
	suffixWidth int
	lossless    bool
	value       bool
}

func shapeOf[K any](im Image[K]) imageShape {
	return imageShape{width: im.Width, shift: im.Shift, of: im.Of != nil, codec: im.Codec != nil,
		self: im.Self, suffix: im.Suffix != nil, suffixWidth: im.SuffixWidth, lossless: im.Lossless,
		value: im.Value != nil && im.FromValue != nil}
}

// The columns of an imageShape, each pinned by one test; together they pin
// every field of every row.
func layoutColumns(s imageShape) imageShape {
	return imageShape{width: s.width, shift: s.shift, of: s.of, suffix: s.suffix,
		suffixWidth: s.suffixWidth, value: s.value}
}
func codecColumn(s imageShape) imageShape    { return imageShape{codec: s.codec} }
func selfColumn(s imageShape) imageShape     { return imageShape{self: s.self} }
func losslessColumn(s imageShape) imageShape { return imageShape{lossless: s.lossless} }

// imageCase is one Ops, the Image it must have, and keys to check the
// image's relations on.  bits is the key's exact representation, for the
// codec's round trip.
type imageCase[K any] struct {
	name string
	ops  Ops[K]
	want imageShape
	ks   []K
	bits func(K) uint64
}

// imageRow is an imageCase of any key type.
type imageRow interface {
	shape(t *testing.T, column func(imageShape) imageShape)
	embedding(t *testing.T)
	codec(t *testing.T)
}

// shape checks the given columns of ImageOf(ops) against want.
func (c imageCase[K]) shape(t *testing.T, column func(imageShape) imageShape) {
	t.Helper()
	if got, want := column(shapeOf(ImageOf(c.ops))), column(c.want); got != want {
		t.Errorf("%s: ImageOf = %+v, want %+v", c.name, got, want)
	}
}

// embedding checks that an image without a suffix, shifted into place, is
// the ToBits embedding.
func (c imageCase[K]) embedding(t *testing.T) {
	t.Helper()
	im := ImageOf(c.ops)
	if im.Of == nil || im.Suffix != nil {
		return
	}
	for _, k := range c.ks {
		if b := c.ops.ToBits(k); b != (xmath.U128{Hi: im.Of(k) << im.Shift}) {
			t.Errorf("%s: ToBits(%v) = %v, image %#x << %d", c.name, k, b, im.Of(k), im.Shift)
		}
	}
}

// codec checks that the bulk transforms agree with Of element by element,
// write nothing past src, invert each other down to the key's bit pattern,
// and that a float value line maps each image back to itself.
func (c imageCase[K]) codec(t *testing.T) {
	t.Helper()
	im := ImageOf(c.ops)
	if im.Codec == nil {
		return
	}
	imgs := make([]uint64, len(c.ks)+1) // longer than src: only the prefix is written
	imgs[len(c.ks)] = 0xfeed
	im.Codec.RadixImages(imgs, c.ks)
	if imgs[len(c.ks)] != 0xfeed {
		t.Fatalf("%s: RadixImages wrote past len(src)", c.name)
	}
	back := make([]K, len(c.ks))
	im.Codec.RadixKeys(back, imgs[:len(c.ks)])
	for i, k := range c.ks {
		if want := im.Of(k); imgs[i] != want {
			t.Errorf("%s: bulk image of %v is %#x, Of says %#x", c.name, k, imgs[i], want)
		}
		if c.bits(back[i]) != c.bits(k) {
			t.Errorf("%s: image round trip turned %#x into %#x", c.name, c.bits(k), c.bits(back[i]))
		}
		if v := im.Value; v != nil && !math.IsNaN(v(imgs[i])) && im.FromValue(v(imgs[i])) != imgs[i] {
			t.Errorf("%s: value line maps image %#x to %v and back to %#x", c.name, imgs[i], v(imgs[i]), im.FromValue(v(imgs[i])))
		}
	}
}

// descendingUint64 is another ordering of uint64 keys: same key type, a
// different image.  It gets none by embedding Uint64.
type descendingUint64 struct{ Uint64 }

func (descendingUint64) Less(a, b uint64) bool { return a > b }

// scalarRows are the six scalars (lossless, with a codec, images shifted
// into the high word, Uint64 the only self image), String (no image) and an
// Ops that merely embeds a scalar (no image).
func scalarRows() []imageRow {
	f64 := []float64{math.NaN(), math.Float64frombits(0xfff0000000000123), math.Float64frombits(0x7ff8000000000001),
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 1.5, -1.5}
	f32 := []float32{float32(math.NaN()), math.Float32frombits(0xff800123), math.Float32frombits(0x7fc00001),
		float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)), math.MaxFloat32,
		-math.MaxFloat32, math.SmallestNonzeroFloat32, 2.5}
	scalar := imageShape{width: 8, of: true, codec: true, lossless: true}
	narrow := imageShape{width: 4, shift: 32, of: true, codec: true, lossless: true}
	float := func(s imageShape) imageShape { s.value = true; return s }
	self := scalar
	self.self = true
	return []imageRow{
		imageCase[uint64]{"Uint64", Uint64{}, self, []uint64{0, 1, 1 << 63, math.MaxUint64},
			func(v uint64) uint64 { return v }},
		imageCase[int64]{"Int64", Int64{}, scalar, []int64{math.MinInt64, -1, 0, 1, math.MaxInt64},
			func(v int64) uint64 { return uint64(v) }},
		imageCase[float64]{"Float64", Float64{}, float(scalar), f64, math.Float64bits},
		imageCase[uint32]{"Uint32", Uint32{}, narrow, []uint32{0, 1, math.MaxUint32},
			func(v uint32) uint64 { return uint64(v) }},
		imageCase[int32]{"Int32", Int32{}, narrow, []int32{math.MinInt32, -1, 0, 1, math.MaxInt32},
			func(v int32) uint64 { return uint64(uint32(v)) }},
		imageCase[float32]{"Float32", Float32{}, float(narrow), f32,
			func(v float32) uint64 { return uint64(math.Float32bits(v)) }},
		imageCase[string]{"String", String{}, imageShape{}, nil, nil},
		imageCase[uint64]{"descendingUint64", descendingUint64{}, imageShape{}, nil, nil},
	}
}

// wrapperRows are Pair (its base's line without the codec, not lossless) and
// Triple (its base's image with the 8-byte (rank, index) suffix) over
// scalars and over String.
func wrapperRows() []imageRow {
	return []imageRow{
		imageCase[Pair[float64, uint32]]{"Pair[float64]", NewPairOps[float64, uint32](Float64{}),
			imageShape{width: 8, of: true, value: true},
			[]Pair[float64, uint32]{{Key: math.Inf(-1), Val: 7}, {Key: math.Copysign(0, -1)}, {Key: 1.5, Val: 1}}, nil},
		imageCase[Pair[uint32, int]]{"Pair[uint32]", NewPairOps[uint32, int](Uint32{}),
			imageShape{width: 4, shift: 32, of: true}, []Pair[uint32, int]{{Key: 0}, {Key: math.MaxUint32, Val: -1}}, nil},
		imageCase[Pair[string, int]]{"Pair[string]", NewPairOps[string, int](String{}), imageShape{}, nil, nil},
		imageCase[Triple[uint64]]{"Triple[uint64]", NewTripleOps[uint64](Uint64{}),
			imageShape{width: 8, of: true, suffix: true, suffixWidth: 8, lossless: true}, nil, nil},
		imageCase[Triple[string]]{"Triple[string]", NewTripleOps[string](String{}), imageShape{}, nil, nil},
	}
}

func allImageRows() []imageRow { return append(scalarRows(), wrapperRows()...) }

// TestRadixCapability pins the layout of every scalar's image: its width,
// shift, per-key image and value line; variable-width keys and an Ops that
// only embeds a scalar have none.
func TestRadixCapability(t *testing.T) {
	for _, r := range scalarRows() {
		r.shape(t, layoutColumns)
	}
}

// TestRadixWrapperCapability: Pair and Triple have an image iff their base
// key does, at the base's width and shift, and a Triple's carries the full
// 8-byte (rank, index) suffix.
func TestRadixWrapperCapability(t *testing.T) {
	for _, r := range wrapperRows() {
		r.shape(t, layoutColumns)
	}
}

// TestRadixImageOps: exactly the scalars have a bulk codec, and it agrees
// with Of and round-trips bit for bit; records that carry more than their
// key cannot be rebuilt from it.
func TestRadixImageOps(t *testing.T) {
	for _, r := range allImageRows() {
		r.shape(t, codecColumn)
		r.codec(t)
	}
}

// TestRadixSelfImage: only the Uint64 instance has its keys as their own
// image; the decision follows the Ops, not the key type.
func TestRadixSelfImage(t *testing.T) {
	for _, r := range allImageRows() {
		r.shape(t, selfColumn)
	}
}

// TestLosslessDispatch: the scalars and triples over them survive the
// 128-bit embedding; strings, pairs and triples over strings do not.
func TestLosslessDispatch(t *testing.T) {
	for _, r := range allImageRows() {
		r.shape(t, losslessColumn)
	}
}

// TestScalarImages: an image without a suffix, shifted into place, is the
// ToBits embedding, and ImageOf on a scalar allocates nothing.
func TestScalarImages(t *testing.T) {
	for _, r := range allImageRows() {
		r.embedding(t)
	}
	if a := testing.AllocsPerRun(100, func() { ImageOf[float64](Float64{}) }); a != 0 {
		t.Errorf("ImageOf on a scalar allocates %.1f times", a)
	}
}

// TestRadixKeyOrderIsomorphism: an image without a suffix must be a strict
// order isomorphism — a < b under Less exactly when Of(a) < Of(b) —
// including the floating-point edge cases (NaN, ±0, ±Inf) under the total
// order the Ops define.
func TestRadixKeyOrderIsomorphism(t *testing.T) {
	i64 := ImageOf[int64](Int64{}).Of
	checkI64 := func(a, b int64) bool { return Int64{}.Less(a, b) == (i64(a) < i64(b)) }
	if err := quick.Check(checkI64, nil); err != nil {
		t.Error(err)
	}
	f64 := ImageOf[float64](Float64{}).Of
	checkF64 := func(a, b float64) bool { return Float64{}.Less(a, b) == (f64(a) < f64(b)) }
	if err := quick.Check(checkF64, nil); err != nil {
		t.Error(err)
	}

	edge := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.0, math.Copysign(0, -1),
		1.5, -1.5, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, a := range edge {
		for _, b := range edge {
			if (Float64{}).Less(a, b) != (f64(a) < f64(b)) {
				t.Errorf("Float64 image order disagrees with Less for (%v, %v)", a, b)
			}
		}
	}

	// Narrow keys must land their image in the low Width bytes so the
	// radix kernel can skip the constant high passes.
	u32 := ImageOf[uint32](Uint32{})
	if iv := u32.Of(math.MaxUint32); u32.Width != 4 || iv>>32 != 0 {
		t.Errorf("Uint32 image %#x exceeds its %d-byte width", iv, u32.Width)
	}
}

// TestTripleRadixDecomposition: sorting by (suffix image, then key image)
// with stable passes must reproduce the TripleOps comparison — the
// invariant the two-stage LSD kernel in core relies on.
func TestTripleRadixDecomposition(t *testing.T) {
	ops := NewTripleOps[uint64](Uint64{})
	im := ImageOf[Triple[uint64]](ops)
	mk := func(k uint64, rank, idx int) Triple[uint64] {
		return Triple[uint64]{Key: k, Rank: uint32(rank), Index: uint32(idx)}
	}
	vals := []Triple[uint64]{
		mk(5, 0, 0), mk(5, 0, 1), mk(5, 1, 0), mk(3, 2, 7), mk(9, 0, 0),
	}
	for _, a := range vals {
		for _, b := range vals {
			ka, kb := im.Of(a), im.Of(b)
			sa, sb := im.Suffix(a), im.Suffix(b)
			want := ops.Less(a, b)
			got := ka < kb || (ka == kb && sa < sb)
			if want != got {
				t.Errorf("(key, suffix) image order disagrees with TripleOps.Less for %+v vs %+v", a, b)
			}
		}
	}
}
