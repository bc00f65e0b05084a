package keys

import (
	"math"
	"testing"
)

func TestLosslessDispatch(t *testing.T) {
	if !Lossless[uint64](Uint64{}) || !Lossless[int64](Int64{}) || !Lossless[float64](Float64{}) {
		t.Fatal("64-bit scalar embeddings must be lossless")
	}
	if !Lossless[uint32](Uint32{}) || !Lossless[int32](Int32{}) || !Lossless[float32](Float32{}) {
		t.Fatal("32-bit scalar embeddings must be lossless")
	}
	if !Lossless[Triple[uint64]](NewTripleOps[uint64](Uint64{})) {
		t.Fatal("triples over lossless scalars must be lossless")
	}
	if Lossless[Triple[string]](NewTripleOps[string](String{})) {
		t.Fatal("triples over string keys must not be lossless")
	}
	if Lossless[string](String{}) {
		t.Fatal("string keys must not be lossless")
	}
	if Lossless[Pair[uint64, uint64]](PairOps[uint64, uint64]{Base: Uint64{}}) {
		t.Fatal("pairs carry satellite data outside the embedding; must not be lossless")
	}
}

// checkScalarImages: the bulk image shifted up is the ToBits embedding, and
// shifting an embedding down and inverting it gives the key back bit for bit.
func checkScalarImages[K comparable](t *testing.T, name string, ops Ops[K], ks []K, wantShift uint) {
	t.Helper()
	im, shift, ok := ScalarImages(ops)
	if !ok || shift != wantShift {
		t.Fatalf("%s: ScalarImages = shift %d, ok %v; want shift %d", name, shift, ok, wantShift)
	}
	imgs := make([]uint64, len(ks))
	im.RadixImages(imgs, ks)
	back := make([]K, len(ks))
	for i, k := range ks {
		b := ops.ToBits(k)
		if b.Lo != 0 || b.Hi != imgs[i]<<shift {
			t.Errorf("%s: ToBits(%v) = %v, bulk image %#x << %d", name, k, b, imgs[i], shift)
		}
		imgs[i] = b.Hi >> shift
	}
	im.RadixKeys(back, imgs)
	for i, k := range ks {
		if ops.ToBits(back[i]) != ops.ToBits(k) {
			t.Errorf("%s: key %v came back as %v", name, k, back[i])
		}
	}
}

func TestScalarImages(t *testing.T) {
	checkScalarImages[uint64](t, "Uint64", Uint64{}, []uint64{0, 1, 1 << 63, math.MaxUint64}, 0)
	checkScalarImages[int64](t, "Int64", Int64{}, []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}, 0)
	checkScalarImages[float64](t, "Float64", Float64{}, []float64{math.Inf(-1), -1.5, math.Copysign(0, -1), 0, 1.5, math.Inf(1)}, 0)
	checkScalarImages[uint32](t, "Uint32", Uint32{}, []uint32{0, 1, math.MaxUint32}, 32)
	checkScalarImages[int32](t, "Int32", Int32{}, []int32{math.MinInt32, -1, 0, math.MaxInt32}, 32)
	checkScalarImages[float32](t, "Float32", Float32{}, []float32{float32(math.Inf(-1)), -2.5, 0, 2.5}, 32)

	// Decided by the Ops instance: another ordering of a scalar type, and
	// records wider than their key, take the per-key path.
	if _, _, ok := ScalarImages[uint64](descendingUint64{}); ok {
		t.Error("another ordering of uint64 keys must not be taken for a scalar instance")
	}
	if _, _, ok := ScalarImages[Triple[uint64]](NewTripleOps[uint64](Uint64{})); ok {
		t.Error("TripleOps must not be taken for a scalar instance")
	}
}
