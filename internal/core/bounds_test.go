package core

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"dhsort/internal/keys"
	"dhsort/internal/sortutil"
	"dhsort/internal/store"
)

// FuzzBoundsMatchesSearch: for every source, Bounds(k, lo, hi) must equal
// binary search under ops.Less over the whole partition, for every window
// that brackets the answer.  The byte string is reinterpreted as float64
// keys (NaNs, both zeros and the infinities included), searched as uint64
// images (memSource over a scalar), under Less (memSource over a Pair) and
// as stored 128-bit images through the fence and the block cache
// (extPartition) — with the fence captured while the run was written, and
// with the fence read back from a run somebody else wrote.  At(i) must be the
// image of the i-th key on all of them.
func FuzzBoundsMatchesSearch(f *testing.F) {
	le := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(le(1, 2, 2, 2, 3), math.Float64bits(2), uint16(0), uint16(0))
	f.Add(le(math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero, 0, negZero), math.Float64bits(negZero), uint16(1), uint16(2))
	f.Add(le(math.NaN(), -math.NaN(), math.Inf(1), 5), math.Float64bits(math.NaN()), uint16(7), uint16(1))
	f.Add(le(math.Inf(-1), math.Inf(-1), 0, 0), math.Float64bits(math.Inf(-1)), uint16(0), uint16(3))
	f.Add(le(), uint64(0), uint16(0), uint16(0))
	long := make([]float64, 3*extBlock+17) // several cache blocks, runs of four equal keys
	for i := range long {
		long[i] = float64(i / 4)
	}
	f.Add(le(long...), math.Float64bits(float64(extBlock/4)), uint16(extBlock-3), uint16(5))
	heavy := make([]float64, 5*extBlock+3) // three keys: whole blocks, and fence records, compare equal
	for i := range heavy {
		heavy[i] = float64(i / (2 * extBlock))
	}
	f.Add(le(heavy...), uint64(3*(2*extBlock+5)), uint16(1), uint16(extBlock)) // the element at 2·extBlock+5
	f.Add(le(heavy...), math.Float64bits(0.5), uint16(2*extBlock), uint16(0))
	f.Fuzz(func(t *testing.T, raw []byte, needleBits uint64, a, b uint16) {
		ops := keys.Float64{}
		s := make([]float64, len(raw)/8)
		for i := range s {
			s[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		sortutil.Sort(s, ops.Less)
		n := len(s)
		k := math.Float64frombits(needleBits)
		if n > 0 && needleBits%3 == 0 {
			k = s[int(needleBits/3%uint64(n))] // an element: l < u
		}
		l := sort.Search(n, func(i int) bool { return !ops.Less(s[i], k) })
		u := sort.Search(n, func(i int) bool { return ops.Less(k, s[i]) })
		lo, hi := int(a)%(l+1), u+int(b)%(n-u+1)

		check := func(name string, gotL, gotU int) {
			t.Helper()
			if gotL != l || gotU != u {
				t.Fatalf("%s: Bounds(%x, %d, %d) = (%d, %d), want (%d, %d) over %d keys",
					name, math.Float64bits(k), lo, hi, gotL, gotU, l, u, n)
			}
		}
		type rec = keys.Pair[float64, uint8]
		pairs := make([]rec, n)
		for i, v := range s {
			pairs[i] = rec{Key: v, Val: uint8(i)}
		}
		st := &fenceStore{Store: store.NewMem(), name: "part"}
		if err := writeRunKeys(st, "part", s, newImageCodec[float64](ops)); err != nil {
			t.Fatal(err)
		}
		if want := (n + extBlock - 1) / extBlock; len(st.w.fence) != want {
			t.Fatalf("the writer kept %d fence records for %d keys, want %d", len(st.w.fence), n, want)
		}
		part, err := openExtPartition(st, "part", newImageCodec[float64](ops), st.w.fence)
		if err != nil {
			t.Fatal(err)
		}
		defer part.Close()
		adopted, err := openExtPartition(st, "part", newImageCodec[float64](ops), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer adopted.Close()
		// At, which seeds the brackets, reads the same image at every index
		// from the slice and through the block cache (the multi-block seeds
		// cross several cache blocks).
		mem := newMemSource(s, ops, nil)
		for i := range s {
			if want := ops.ToBits(s[i]); mem.At(i) != want || part.At(i) != want || adopted.At(i) != want {
				t.Fatalf("At(%d) = %v (memSource), %v (extPartition), %v (fence read back), want %v", i, mem.At(i), part.At(i), adopted.At(i), want)
			}
		}
		for _, w := range [][2]int{{lo, hi}, {0, n}, {l, u}} {
			lo, hi = w[0], w[1]
			gl, gu := newMemSource(s, ops, nil).Bounds(k, lo, hi)
			check("memSource images", gl, gu)
			gl, gu = newMemSource(pairs, keys.NewPairOps[float64, uint8](ops), nil).Bounds(rec{Key: k}, lo, hi)
			check("memSource Less", gl, gu)
			gl, gu = part.Bounds(k, lo, hi)
			check("extPartition", gl, gu)
			gl, gu = adopted.Bounds(k, lo, hi)
			check("extPartition, fence read back", gl, gu)
		}
	})
}
