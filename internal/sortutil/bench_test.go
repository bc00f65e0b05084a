package sortutil

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dhsort/internal/keys"
	"dhsort/internal/prng"
)

// The radix kernels as the Local Sort dispatch drives them, one benchmark
// per key shape, measurable with the standard toolchain alone:
//
//	go test ./internal/sortutil -run '^$' -bench Radix -benchtime 20x
//
// Every iteration copies the input back first (the copy is in the timing on
// purpose: it is the same on both sides of any comparison) and sorts in
// place through a warm arena.  The two-stage Triple order is driven through
// the dispatch and so lives with it: core.BenchmarkRadixTriple.

var radixBenchSizes = []int{1 << 18, 1 << 20}

// benchRadix times sortOnce over fresh copies of gen's keys.
func benchRadix[T any](b *testing.B, elemBytes int, gen func(src *prng.Xoshiro256) T, sortOnce func(a []T, ar *Arena[T])) {
	for _, n := range radixBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := prng.NewXoshiro256(uint64(n))
			orig := make([]T, n)
			for i := range orig {
				orig[i] = gen(src)
			}
			work := make([]T, n)
			ar := &Arena[T]{}
			b.SetBytes(int64(elemBytes * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, orig)
				sortOnce(work, ar)
			}
		})
	}
}

func BenchmarkRadixU64Full(b *testing.B) {
	benchRadix(b, 8, func(src *prng.Xoshiro256) uint64 { return src.Uint64() },
		func(a []uint64, ar *Arena[uint64]) { RadixSortImages(a, nil, 8, ar) })
}

func BenchmarkRadixU64Span1e9(b *testing.B) {
	benchRadix(b, 8, func(src *prng.Xoshiro256) uint64 { return prng.Uint64n(src, 1e9) },
		func(a []uint64, ar *Arena[uint64]) { RadixSortImages(a, nil, 8, ar) })
}

func BenchmarkRadixF64(b *testing.B) {
	benchRadix(b, 8, func(src *prng.Xoshiro256) float64 { return math.Float64frombits(src.Uint64()) },
		func(a []float64, ar *Arena[float64]) { RadixSortKeys[float64](a, nil, 8, keys.Float64{}, ar) })
}

func BenchmarkRadixU32(b *testing.B) {
	benchRadix(b, 4, func(src *prng.Xoshiro256) uint32 { return uint32(src.Uint64()) },
		func(a []uint32, ar *Arena[uint32]) { RadixSortKeys[uint32](a, nil, 4, keys.Uint32{}, ar) })
}

func BenchmarkRadixPair(b *testing.B) {
	ops := keys.NewPairOps[uint64, uint64](keys.Uint64{})
	key := keys.ImageOf[keys.Pair[uint64, uint64]](ops).Of
	benchRadix(b, 16, func(src *prng.Xoshiro256) keys.Pair[uint64, uint64] {
		return keys.Pair[uint64, uint64]{Key: src.Uint64(), Val: src.Uint64()}
	}, func(a []keys.Pair[uint64, uint64], ar *Arena[keys.Pair[uint64, uint64]]) {
		RadixSortFunc(a, nil, key, 8, ar)
	})
}

// BenchmarkRadixCorrelated is the input the pass chooser misjudges (three
// equal top bytes, see correlatedImages): 256 groups of 1,024 at 2^18, all of
// which go back through the kernel on their low bytes.
func BenchmarkRadixCorrelated(b *testing.B) {
	orig := correlatedImages(1, 1<<18, 8)
	work := make([]uint64, len(orig))
	ar := &Arena[uint64]{}
	b.SetBytes(int64(8 * len(orig)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, orig)
		RadixSortImages(work, nil, 8, ar)
	}
}

// BenchmarkRadixGather16 is the re-sort Local Merge of a P=16 rank: 16
// sorted runs of 2^14 keys, all inside one sixteenth of the key range,
// gathered into a 2^18 destination.
func BenchmarkRadixGather16(b *testing.B) {
	runs := sortedRuns(16, 1<<14)
	dst := make([]uint64, 16<<14)
	ar := &Arena[uint64]{}
	b.SetBytes(int64(8 * len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RadixSortImages(dst, runs, 8, ar)
	}
}

// BenchmarkMergeImages is the image Local Merge against the re-sort it
// stands in for, on k sorted runs of n keys (BenchmarkRadixGather16's input
// is k=16/n=16384); it locates the crossover by run count and length:
//
//	go test ./internal/sortutil -run '^$' -bench MergeImages -benchtime 100ms -cpu 1
func BenchmarkMergeImages(b *testing.B) {
	for _, k := range []int{2, 4, 8, 16, 32, 64} {
		for _, n := range []int{16, 1 << 10, 1 << 14} {
			runs := sortedRuns(k, n)
			dst, tmp := make([]uint64, k*n), make([]uint64, k*n) // MergeImages' two buffers
			ar := &Arena[uint64]{}
			b.Run(fmt.Sprintf("k=%d/n=%d/merge", k, n), func(b *testing.B) {
				b.SetBytes(int64(8 * len(dst)))
				for i := 0; i < b.N; i++ {
					MergeImages(dst, tmp, runs)
				}
			})
			b.Run(fmt.Sprintf("k=%d/n=%d/resort", k, n), func(b *testing.B) {
				b.SetBytes(int64(8 * len(dst)))
				for i := 0; i < b.N; i++ {
					RadixSortImages(dst, runs, 8, ar)
				}
			})
		}
	}
}

// sortedRuns returns k sorted runs of n keys, all inside one sixteenth of
// the key range.
func sortedRuns(k, n int) [][]uint64 {
	src := prng.NewXoshiro256(uint64(k))
	runs := make([][]uint64, k)
	for r := range runs {
		runs[r] = make([]uint64, n)
		for i := range runs[r] {
			runs[r][i] = 5<<60 | src.Uint64()>>4
		}
		slices.Sort(runs[r])
	}
	return runs
}
