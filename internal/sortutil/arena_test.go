package sortutil

import (
	"testing"

	"dhsort/internal/keys"
	"dhsort/internal/prng"
)

func TestArenaNilReceiverAllocates(t *testing.T) {
	var ar *Arena[uint64]
	v := ar.Vals(10)
	k := ar.Keys(10)
	if len(v) != 10 || len(k) != 10 {
		t.Fatalf("nil arena returned lengths %d/%d, want 10/10", len(v), len(k))
	}
}

func TestArenaReusesBacking(t *testing.T) {
	ar := &Arena[uint64]{}
	v1 := ar.Vals(1000)
	k1 := ar.Keys(2000)
	v2 := ar.Vals(500)
	k2 := ar.Keys(100)
	if &v1[0] != &v2[0] {
		t.Error("smaller Vals request must reuse the backing store")
	}
	if &k1[0] != &k2[0] {
		t.Error("smaller Keys request must reuse the backing store")
	}
	if len(v2) != 500 || len(k2) != 100 {
		t.Errorf("lengths %d/%d, want 500/100", len(v2), len(k2))
	}
	v3 := ar.Vals(4000)
	if len(v3) != 4000 {
		t.Errorf("grown Vals length %d, want 4000", len(v3))
	}
}

// TestRadixSortScratchReuse: repeated radix sorts through one arena must
// produce the same results as fresh-allocation sorts, with any arena
// garbage from previous calls ignored — and the image-only kernels must
// draw images only: n for keys that are their own image, 2n otherwise, and
// never an element buffer.
func TestRadixSortScratchReuse(t *testing.T) {
	ar := &Arena[uint64]{}
	arF := &Arena[float64]{}
	src := prng.NewXoshiro256(12345)
	maxN := 0
	for round := 0; round < 8; round++ {
		n := 100 + ((round*5)%8)*377 // sizes go up and down
		maxN = max(maxN, n)
		a := make([]uint64, n)
		f := make([]float64, n)
		for i := range a {
			a[i] = src.Uint64()
			f[i] = float64(int64(a[i]))
		}
		want := append([]uint64(nil), a...)
		RadixSortUint64(want)
		passes := RadixSortImages(a, nil, 8, ar)
		if passes < 1 || passes > 8 {
			t.Fatalf("round %d: varying digits = %d, want 1..8", round, passes)
		}
		for i := range a {
			if a[i] != want[i] {
				t.Fatalf("round %d: mismatch at %d with reused arena", round, i)
			}
		}
		wantF := append([]float64(nil), f...)
		RadixSortKeys[float64](wantF, nil, 8, keys.Float64{}, nil)
		RadixSortKeys[float64](f, nil, 8, keys.Float64{}, arF)
		for i := range f {
			if f[i] != wantF[i] {
				t.Fatalf("round %d: float mismatch at %d with reused arena", round, i)
			}
		}
	}
	if cap(ar.keys) != maxN || cap(ar.vals) != 0 {
		t.Errorf("self-image sort drew %d images and %d elements of scratch, want %d and 0", cap(ar.keys), cap(ar.vals), maxN)
	}
	if cap(arF.keys) != 2*maxN || cap(arF.vals) != 0 {
		t.Errorf("image-only sort drew %d images and %d elements of scratch, want %d and 0", cap(arF.keys), cap(arF.vals), 2*maxN)
	}
}

// TestRadixSkipsConstantDigits: keys confined to a narrow span must count
// (and so execute) fewer scatter passes than the full key width.
func TestRadixSkipsConstantDigits(t *testing.T) {
	src := prng.NewXoshiro256(7)
	a := make([]uint64, 5000)
	for i := range a {
		a[i] = prng.Uint64n(src, 1<<16) // only low 2 bytes vary
	}
	passes := RadixSortFunc(a, nil, func(v uint64) uint64 { return v }, 8, nil)
	if passes > 2 {
		t.Errorf("16-bit span counted %d passes, want <= 2", passes)
	}
	if !IsSorted(a, func(x, y uint64) bool { return x < y }) {
		t.Error("result not sorted")
	}
}
