package psort

import (
	"fmt"
	"testing"

	"dhsort/internal/prng"
	"dhsort/internal/sortutil"
)

// The intra-rank kernel microbenchmarks behind the Local Sort dispatch:
//
//	go test ./internal/psort -bench 'LocalSort|MergeK' -benchtime 2x
//
// Radix beats introsort on uint64 at every size (fewer than 8 executed
// passes when the span leaves high digits constant); the fork-join merge
// sort needs GOMAXPROCS > 1 to show its speedup.

func benchData(n int) []uint64 {
	src := prng.NewXoshiro256(uint64(n))
	a := make([]uint64, n)
	for i := range a {
		a[i] = src.Uint64()
	}
	return a
}

func BenchmarkLocalSortIntrosort(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			orig := benchData(n)
			work := make([]uint64, n)
			b.SetBytes(int64(8 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, orig)
				sortutil.Sort(work, lessU64)
			}
		})
	}
}

func BenchmarkLocalSortRadix(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			orig := benchData(n)
			work := make([]uint64, n)
			var ar sortutil.Arena[uint64]
			b.SetBytes(int64(8 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, orig)
				sortutil.RadixSortImages(work, nil, 8, &ar)
			}
		})
	}
}

func BenchmarkLocalSortTaskMerge(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		for _, threads := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("n=%d/t=%d", n, threads), func(b *testing.B) {
				orig := benchData(n)
				work := make([]uint64, n)
				scratch := make([]uint64, n)
				b.SetBytes(int64(8 * n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(work, orig)
					ParallelTaskMergeSortScratch(work, lessU64, threads, scratch)
				}
			})
		}
	}
}

func BenchmarkMergeK(b *testing.B) {
	totalKeys := 1 << 20
	for _, k := range []int{4, 64, 512} {
		runs := make([][]uint64, k)
		for i := range runs {
			r := benchData(totalKeys / k)
			sortutil.Sort(r, lessU64)
			runs[i] = r
		}
		for _, alg := range MergeAlgorithms {
			b.Run(fmt.Sprintf("%s/k=%d", alg, k), func(b *testing.B) {
				b.SetBytes(int64(8 * totalKeys))
				for i := 0; i < b.N; i++ {
					out := MergeK(alg, runs, lessU64, 2)
					if len(out) != (totalKeys/k)*k {
						b.Fatal("merge lost elements")
					}
				}
			})
		}
	}
}
