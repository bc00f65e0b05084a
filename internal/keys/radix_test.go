package keys

import (
	"math"
	"testing"
	"testing/quick"
)

// TestRadixCapability pins the dispatch table: every fixed-width scalar
// advertises a radix image with the right width, variable-width keys do
// not, and the wrappers inherit exactly their base's capability.
func TestRadixCapability(t *testing.T) {
	if r, ok := Radix[uint64](Uint64{}); !ok {
		t.Fatal("Uint64 must be radix-capable")
	} else if _, w := r.RadixKey(0); w != 8 {
		t.Fatalf("Uint64 width = %d, want 8", w)
	}
	if r, ok := Radix[int64](Int64{}); !ok {
		t.Fatal("Int64 must be radix-capable")
	} else if _, w := r.RadixKey(0); w != 8 {
		t.Fatalf("Int64 width = %d, want 8", w)
	}
	if r, ok := Radix[float64](Float64{}); !ok {
		t.Fatal("Float64 must be radix-capable")
	} else if _, w := r.RadixKey(0); w != 8 {
		t.Fatalf("Float64 width = %d, want 8", w)
	}
	if r, ok := Radix[uint32](Uint32{}); !ok {
		t.Fatal("Uint32 must be radix-capable")
	} else if _, w := r.RadixKey(0); w != 4 {
		t.Fatalf("Uint32 width = %d, want 4", w)
	}
	if r, ok := Radix[int32](Int32{}); !ok {
		t.Fatal("Int32 must be radix-capable")
	} else if _, w := r.RadixKey(0); w != 4 {
		t.Fatalf("Int32 width = %d, want 4", w)
	}
	if r, ok := Radix[float32](Float32{}); !ok {
		t.Fatal("Float32 must be radix-capable")
	} else if _, w := r.RadixKey(0); w != 4 {
		t.Fatalf("Float32 width = %d, want 4", w)
	}

	if _, ok := Radix[string](String{}); ok {
		t.Fatal("String must not be radix-capable (variable width)")
	}
}

// TestRadixWrapperCapability: Pair and Triple ops are radix-capable iff the
// base key is — the bare type assertion would say yes unconditionally, which
// is exactly the bug the Radix dispatcher exists to prevent.
func TestRadixWrapperCapability(t *testing.T) {
	if _, ok := Radix[Pair[uint64, string]](NewPairOps[uint64, string](Uint64{})); !ok {
		t.Fatal("Pair over Uint64 must be radix-capable")
	}
	if _, ok := Radix[Pair[string, int]](NewPairOps[string, int](String{})); ok {
		t.Fatal("Pair over String must not be radix-capable")
	}
	tr, ok := Radix[Triple[uint64]](NewTripleOps[uint64](Uint64{}))
	if !ok {
		t.Fatal("Triple over Uint64 must be radix-capable")
	}
	if _, w := tr.RadixKey(Triple[uint64]{}); w != 8 {
		t.Fatalf("Triple radix width = %d, want base's 8", w)
	}
	if _, ok := Radix[Triple[string]](NewTripleOps[string](String{})); ok {
		t.Fatal("Triple over String must not be radix-capable")
	}

	// The suffix stage must exist for triples and carry the full 8-byte
	// (rank, index) discriminator.
	sfx, ok := any(NewTripleOps[uint64](Uint64{})).(RadixSuffixOps[Triple[uint64]])
	if !ok {
		t.Fatal("TripleOps must advertise a radix suffix")
	}
	if _, w := sfx.RadixSuffix(Triple[uint64]{}); w != 8 {
		t.Fatalf("Triple suffix width = %d, want 8", w)
	}
}

// TestRadixKeyOrderIsomorphism: RadixKey must be a strict order isomorphism
// — a < b under Less exactly when image(a) < image(b) — including the
// floating-point edge cases (NaN, ±0, ±Inf) under the total order the Ops
// define.
func TestRadixKeyOrderIsomorphism(t *testing.T) {
	checkI64 := func(a, b int64) bool {
		ia, _ := Int64{}.RadixKey(a)
		ib, _ := Int64{}.RadixKey(b)
		return Int64{}.Less(a, b) == (ia < ib)
	}
	if err := quick.Check(checkI64, nil); err != nil {
		t.Error(err)
	}
	checkF64 := func(a, b float64) bool {
		ia, _ := Float64{}.RadixKey(a)
		ib, _ := Float64{}.RadixKey(b)
		return Float64{}.Less(a, b) == (ia < ib)
	}
	if err := quick.Check(checkF64, nil); err != nil {
		t.Error(err)
	}

	edge := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.0, math.Copysign(0, -1),
		1.5, -1.5, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, a := range edge {
		for _, b := range edge {
			ia, _ := Float64{}.RadixKey(a)
			ib, _ := Float64{}.RadixKey(b)
			if (Float64{}).Less(a, b) != (ia < ib) {
				t.Errorf("Float64 image order disagrees with Less for (%v, %v)", a, b)
			}
		}
	}

	// Narrow keys must land their image in the low `width` bytes so the
	// radix kernel can skip the constant high passes.
	iv, w := Uint32{}.RadixKey(math.MaxUint32)
	if w != 4 || iv>>32 != 0 {
		t.Errorf("Uint32 image %#x exceeds its %d-byte width", iv, w)
	}
}

// TestTripleRadixDecomposition: sorting by (suffix image, then key image)
// with stable passes must reproduce the TripleOps comparison — the
// invariant the two-stage LSD kernel in core relies on.
func TestTripleRadixDecomposition(t *testing.T) {
	ops := NewTripleOps[uint64](Uint64{})
	mk := func(k uint64, rank, idx int) Triple[uint64] {
		return Triple[uint64]{Key: k, Rank: uint32(rank), Index: uint32(idx)}
	}
	vals := []Triple[uint64]{
		mk(5, 0, 0), mk(5, 0, 1), mk(5, 1, 0), mk(3, 2, 7), mk(9, 0, 0),
	}
	for _, a := range vals {
		for _, b := range vals {
			ka, _ := ops.RadixKey(a)
			kb, _ := ops.RadixKey(b)
			sa, _ := ops.RadixSuffix(a)
			sb, _ := ops.RadixSuffix(b)
			want := ops.Less(a, b)
			got := ka < kb || (ka == kb && sa < sb)
			if want != got {
				t.Errorf("(key, suffix) image order disagrees with TripleOps.Less for %+v vs %+v", a, b)
			}
		}
	}
}

// checkImageOps: the bulk transforms agree with RadixKey element by element
// and invert each other exactly, down to the key's bit pattern.
func checkImageOps[K any](t *testing.T, name string, ops Ops[K], ks []K, bits func(K) uint64) {
	t.Helper()
	im, ok := any(ops).(RadixImageOps[K])
	if !ok {
		t.Fatalf("%s must advertise an invertible radix image", name)
	}
	imgs := make([]uint64, len(ks)+1) // longer than src: only the prefix is written
	imgs[len(ks)] = 0xfeed
	im.RadixImages(imgs, ks)
	if imgs[len(ks)] != 0xfeed {
		t.Fatalf("%s: RadixImages wrote past len(src)", name)
	}
	back := make([]K, len(ks))
	im.RadixKeys(back, imgs[:len(ks)])
	for i, k := range ks {
		if want, _ := im.RadixKey(k); imgs[i] != want {
			t.Errorf("%s: bulk image of %v is %#x, RadixKey says %#x", name, k, imgs[i], want)
		}
		if bits(back[i]) != bits(k) {
			t.Errorf("%s: image round trip turned %#x into %#x", name, bits(k), bits(back[i]))
		}
	}
}

func TestRadixImageOps(t *testing.T) {
	checkImageOps[uint64](t, "Uint64", Uint64{}, []uint64{0, 1, 1 << 63, math.MaxUint64},
		func(v uint64) uint64 { return v })
	checkImageOps[int64](t, "Int64", Int64{}, []int64{math.MinInt64, -1, 0, 1, math.MaxInt64},
		func(v int64) uint64 { return uint64(v) })
	checkImageOps[float64](t, "Float64", Float64{},
		[]float64{math.NaN(), math.Float64frombits(0xfff0000000000123), math.Inf(1), math.Inf(-1),
			0, math.Copysign(0, -1), 1.5, -1.5, math.SmallestNonzeroFloat64},
		math.Float64bits)
	checkImageOps[uint32](t, "Uint32", Uint32{}, []uint32{0, 1, math.MaxUint32},
		func(v uint32) uint64 { return uint64(v) })
	checkImageOps[int32](t, "Int32", Int32{}, []int32{math.MinInt32, -1, 0, math.MaxInt32},
		func(v int32) uint64 { return uint64(uint32(v)) })
	checkImageOps[float32](t, "Float32", Float32{},
		[]float32{float32(math.NaN()), math.Float32frombits(0xff800123), float32(math.Inf(-1)),
			0, float32(math.Copysign(0, -1)), 2.5},
		func(v float32) uint64 { return uint64(math.Float32bits(v)) })

	// Records that carry more than their key cannot be rebuilt from it.
	if _, ok := any(NewPairOps[uint64, int](Uint64{})).(RadixImageOps[Pair[uint64, int]]); ok {
		t.Error("PairOps must not advertise an invertible image")
	}
	if _, ok := any(NewTripleOps[uint64](Uint64{})).(RadixImageOps[Triple[uint64]]); ok {
		t.Error("TripleOps must not advertise an invertible image")
	}
}

// descendingUint64 is another ordering of uint64 keys: same key type, a
// different image.
type descendingUint64 struct{ Uint64 }

func (descendingUint64) Less(a, b uint64) bool { return a > b }

// TestRadixSelfImage: only the Uint64 instance sorts its keys where they
// lie; the decision follows the Ops, not the key type.
func TestRadixSelfImage(t *testing.T) {
	s := []uint64{3, 1, 2}
	img, ok := RadixSelfImage[uint64](Uint64{}, s)
	if !ok || &img[0] != &s[0] {
		t.Error("Uint64 keys must be their own image, in place")
	}
	if _, ok := RadixSelfImage[uint64](descendingUint64{}, s); ok {
		t.Error("another ordering of uint64 keys must not be taken for the identity image")
	}
	if _, ok := RadixSelfImage[int64](Int64{}, []int64{1}); ok {
		t.Error("Int64 keys are not their own image")
	}
	if img, ok := RadixSelfImage[uint64](Uint64{}, nil); !ok || img != nil {
		t.Error("a nil slice of self-image keys stays nil")
	}
}
