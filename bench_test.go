package dhsort

// Benchmarks regenerating the paper's evaluation artifacts in testing.B
// form.  Scaling benchmarks execute under the simnet virtual clock and
// report the modelled SuperMUC makespan as the custom metric "vsec/op"
// (virtual seconds per sort); wall-clock ns/op measures the simulation
// itself, not the modelled machine.  The cmd/bench tool prints the full
// tables; see EXPERIMENTS.md.

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"dhsort/internal/bench"
	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/keys"
	"dhsort/internal/prng"
	"dhsort/internal/psort"
	"dhsort/internal/simnet"
	"dhsort/internal/sortutil"
	"dhsort/internal/workload"
)

// virtualSort runs one modelled sort and returns the virtual makespan in
// seconds.
func virtualSort(b *testing.B, p, perRank int, scale float64, model *simnet.CostModel,
	run func(c *comm.Comm, local []uint64, scale float64) ([]uint64, error)) float64 {
	b.Helper()
	w, err := comm.NewWorld(p, model)
	if err != nil {
		b.Fatal(err)
	}
	err = w.Run(func(c *comm.Comm) error {
		spec := workload.Spec{Dist: workload.Uniform, Seed: 42, Span: 1e9}
		local, err := spec.Rank(c.Rank(), perRank)
		if err != nil {
			return err
		}
		_, err = run(c, local, scale)
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	return w.Makespan().Seconds()
}

// BenchmarkStrongScaling is the Fig. 2(a) series: fixed total volume
// (2^31 keys virtual), growing rank count.
func BenchmarkStrongScaling(b *testing.B) {
	const realTotal = 1 << 18
	scale := float64(int64(1)<<31) / float64(realTotal)
	model := simnet.SuperMUC(16, true)
	for _, p := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			var vsec float64
			for i := 0; i < b.N; i++ {
				vsec = virtualSort(b, p, realTotal/p, scale, model,
					func(c *comm.Comm, local []uint64, s float64) ([]uint64, error) {
						return core.Sort(c, local, keys.Uint64{}, core.Config{VirtualScale: s})
					})
			}
			b.ReportMetric(vsec, "vsec/op")
		})
	}
}

// BenchmarkWeakScaling is the Fig. 3(a) series: 128 MiB per rank (virtual).
func BenchmarkWeakScaling(b *testing.B) {
	const perRankReal = 1024
	scale := float64(int64(1)<<24) / float64(perRankReal)
	model := simnet.SuperMUC(16, true)
	for _, nodes := range []int{1, 4, 16} {
		p := nodes * 16
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			var vsec float64
			for i := 0; i < b.N; i++ {
				vsec = virtualSort(b, p, perRankReal, scale, model,
					func(c *comm.Comm, local []uint64, s float64) ([]uint64, error) {
						return core.Sort(c, local, keys.Uint64{}, core.Config{VirtualScale: s})
					})
			}
			b.ReportMetric(vsec, "vsec/op")
		})
	}
}

// BenchmarkSharedMemory is the Fig. 4 series: one node, 1-4 NUMA domains.
func BenchmarkSharedMemory(b *testing.B) {
	const realTotal = 1 << 16
	scale := float64(int64(5)<<30/8) / float64(realTotal)
	model := simnet.SuperMUC(28, true)
	for _, domains := range []int{1, 2, 4} {
		p := 7 * domains
		b.Run(fmt.Sprintf("domains=%d", domains), func(b *testing.B) {
			var vsec float64
			for i := 0; i < b.N; i++ {
				vsec = virtualSort(b, p, realTotal/p, scale, model,
					func(c *comm.Comm, local []uint64, s float64) ([]uint64, error) {
						return core.Sort(c, local, keys.Uint64{}, core.Config{VirtualScale: s})
					})
			}
			b.ReportMetric(vsec, "vsec/op")
		})
	}
}

// BenchmarkBaselines compares every distributed sorter of bench.Sorters on
// one configuration (the §III comparison).
func BenchmarkBaselines(b *testing.B) {
	const p, perRank = 32, 2048
	t := bench.Trial{P: p, N: p * perRank, Model: simnet.SuperMUC(16, true),
		Spec: workload.Spec{Dist: workload.Uniform, Seed: 42, Span: 1e9}}
	for _, name := range slices.Sorted(maps.Keys(bench.Sorters)) {
		b.Run(name, func(b *testing.B) {
			var vsec float64
			for i := 0; i < b.N; i++ {
				res, err := bench.Run(bench.Sorters[name], core.Config{VirtualScale: 1024}, t)
				if err != nil {
					b.Fatal(err)
				}
				vsec = res.Makespan.Seconds()
			}
			b.ReportMetric(vsec, "vsec/op")
		})
	}
}

// BenchmarkDSelect measures the distributed selection building block
// (Algorithm 1) at several rank counts.
func BenchmarkDSelect(b *testing.B) {
	model := simnet.SuperMUC(16, true)
	for _, p := range []int{8, 64} {
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			const perRank = 4096
			w, err := comm.NewWorld(1, nil)
			_ = w
			if err != nil {
				b.Fatal(err)
			}
			var vsec float64
			for i := 0; i < b.N; i++ {
				w, _ := comm.NewWorld(p, model)
				err := w.Run(func(c *comm.Comm) error {
					spec := workload.Spec{Dist: workload.Uniform, Seed: 9, Span: 1e9}
					local, _ := spec.Rank(c.Rank(), perRank)
					_, err := core.DSelect(c, local, int64(p*perRank/2), keys.Uint64{}, core.Config{})
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
				vsec = w.Makespan().Seconds()
			}
			b.ReportMetric(vsec, "vsec/op")
		})
	}
}

// BenchmarkKWayMerge is the §VI-E study in testing.B form: real wall-clock
// k-way merging, by algorithm and chunk count.
func BenchmarkKWayMerge(b *testing.B) {
	const total = 1 << 20
	less := func(a, x uint32) bool { return a < x }
	for _, k := range []int{2, 32, 512} {
		src := prng.NewXoshiro256(uint64(k))
		runs := make([][]uint32, k)
		for i := range runs {
			r := make([]uint32, total/k)
			for j := range r {
				r[j] = uint32(src.Uint64())
			}
			sortutil.Sort(r, less)
			runs[i] = r
		}
		for _, alg := range psort.MergeAlgorithms {
			b.Run(fmt.Sprintf("k=%d/%s", k, alg), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out := psort.MergeK(alg, runs, less, 2)
					if len(out) != total {
						b.Fatal("merge lost elements")
					}
				}
				b.SetBytes(int64(total * 4))
			})
		}
	}
}

// BenchmarkLocalSort measures the sequential introsort kernel used by the
// Local Sort superstep.
func BenchmarkLocalSort(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := prng.NewXoshiro256(uint64(n))
			data := make([]uint64, n)
			for i := range data {
				data[i] = src.Uint64()
			}
			buf := make([]uint64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, data)
				sortutil.Sort(buf, func(a, x uint64) bool { return a < x })
			}
			b.SetBytes(int64(n * 8))
		})
	}
}

// BenchmarkCollectives measures the runtime's allreduce and alltoall, the
// two operations the splitter search and data exchange are built on.
func BenchmarkCollectives(b *testing.B) {
	for _, p := range []int{16, 64} {
		b.Run(fmt.Sprintf("allreduce/ranks=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, _ := comm.NewWorld(p, nil)
				err := w.Run(func(c *comm.Comm) error {
					vec := make([]int64, 2*p)
					for r := 0; r < 10; r++ {
						comm.Allreduce(c, vec, func(a, x int64) int64 { return a + x })
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("alltoallv/ranks=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, _ := comm.NewWorld(p, nil)
				err := w.Run(func(c *comm.Comm) error {
					counts := make([]int, p)
					for d := range counts {
						counts[d] = 64
					}
					buf := make([]uint64, 64*p)
					comm.AlltoallvWith(c, buf, counts, comm.AlltoallPairwise, 1)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
