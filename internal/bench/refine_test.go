package bench

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"dhsort/internal/core"
	"dhsort/internal/simnet"
	"dhsort/internal/testutil"
	"dhsort/internal/workload"
)

// TestSplitterRefinementGolden pins the splitter refinement of dhsort and
// hss on the settings BENCH_full.json's rows leave out (they run one probe,
// ε = 0, resident keys): k-ary probes, a positive tolerance, the uniqueness
// transformation and a spilled partition.  Each row is P = 16,
// 2^14 keys, pgas pricing, one thread: the refinement rounds
// (Summary.Iterations), the virtual makespan in ns, the digest of the
// world's Stats and the digest of every rank's output.
func TestSplitterRefinementGolden(t *testing.T) {
	const p, n = 16, 1 << 14
	normal := workload.Spec{Dist: workload.Normal, Seed: 5}
	uniform := workload.Spec{Dist: workload.Uniform, Seed: 5}
	zipf := workload.Spec{Dist: workload.Zipf, Seed: 5, Span: 1e9}
	rows := []struct {
		name, alg string
		spec      workload.Spec
		cfg       core.Config
		want      [4]uint64
	}{
		{"hss/probes4", "hss", normal, core.Config{Threads: 1, Probes: 4}, [4]uint64{0x20, 0x521b6, 0x1745d374246c76ca, 0x8616832fa99d4af2}},
		{"hss/eps0.2", "hss", uniform, core.Config{Threads: 1, Epsilon: 0.2}, [4]uint64{0x2, 0x19582, 0x9177228ae851b7e2, 0xa8409564bc370267}},
		{"hss/unique", "hss", zipf, core.Config{Threads: 1, ForceUnique: true}, [4]uint64{0x83, 0xa8c56, 0x6bb077a30d145308, 0x1a42c0d9e7a9588c}},
		{"hss/spilled", "hss", normal, core.Config{Threads: 1, MemBudget: 2048}, [4]uint64{0x3d, 0x607b6, 0xda99f4051af1e807, 0x8616832fa99d4af2}},
		{"dhsort/probes4", "dhsort", normal, core.Config{Threads: 1, Probes: 4}, [4]uint64{0x6, 0x1b8ae, 0xc13de81035f63e8a, 0x8616832fa99d4af2}},
	}
	for _, r := range rows {
		res, err := Run(Sorters[r.alg], r.cfg, Trial{P: p, N: n, Model: simnet.SuperMUC(suiteRanksPerNode, true), Spec: r.spec})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		oh := fnv.New64a()
		var b []byte
		for _, out := range res.Outs {
			b = binary.LittleEndian.AppendUint64(b[:0], uint64(len(out)))
			for _, v := range out {
				b = binary.LittleEndian.AppendUint64(b, v)
			}
			oh.Write(b)
		}
		got := [4]uint64{uint64(res.Summary.Iterations), uint64(res.Makespan), testutil.StatsDigest(res.Stats), oh.Sum64()}
		if got != r.want {
			t.Errorf("%s: rounds, makespan, Stats digest, output digest %#x; want %#x", r.name, got, r.want)
		}
	}
}
