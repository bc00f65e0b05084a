package main

import (
	"slices"
	"time"

	"dhsort"
	"dhsort/internal/workload"
	"dhsort/internal/xmath"
)

// runner is one workload: a set of inputs the benchmark runs.
type runner interface {
	// round sets up once (timed as set-up), runs timed ops until its round
	// size or the remaining measuring time is used up, and tears down.
	round(rc *runCtx, remaining time.Duration) (roundResult, error)
	// traced is the workload's part of the traced run: it replays the
	// workload's shapes layer by layer, records spans into tr and per-layer
	// metrics into out, and returns how many traced ops it attempted and
	// how many failed verification.
	traced(rc *runCtx, tr *tracer, out *sink) (attempted, failed int, err error)
}

// workloadDef names a workload and records why it exists (BENCHMARK.json
// carries the same sentence).
type workloadDef struct {
	name string
	why  string
	w    runner
}

func uint64Image(k uint64) uint64 { return k }

// genUint64 draws rank inputs from the repository's own seeded generator.
func genUint64(dist workload.Distribution, span uint64) func(seed uint64, rank, n int) ([]uint64, error) {
	return func(seed uint64, rank, n int) ([]uint64, error) {
		return workload.Spec{Dist: dist, Seed: seed, Span: span}.Rank(rank, n)
	}
}

// The three library sort shapes.  Input sizes are the contract; roundOps
// only sets how often a run sets up again (several set-ups per run make
// setup_s a median), and the driver's --seconds sets how many rounds fit.
var (
	sortBulk = &sortSpec[uint64]{
		name: "sort-bulk", p: 16, n: 1 << 22,
		ops: dhsort.Uint64Ops, image: uint64Image,
		gen:      genUint64(workload.Uniform, 0), // span 0 = full 64-bit range: 8 radix passes
		flatSort: slices.Sort[[]uint64],
		warmOps:  3, roundOps: 14,
	}
	sortLatency = &sortSpec[float64]{
		name: "sort-latency", p: 64, n: 1 << 16,
		ops: dhsort.Float64Ops, image: xmath.OrderFloat64,
		gen: func(seed uint64, rank, n int) ([]float64, error) {
			ks, err := workload.Spec{Dist: workload.Normal, Seed: seed}.Rank(rank, n)
			return workload.Floats(ks), err
		},
		flatSort: slices.Sort[[]float64],
		warmOps:  5, roundOps: 80,
	}
	sortSpill = &sortSpec[uint64]{
		name: "sort-spill", p: 4, n: 1 << 20,
		ops: dhsort.Uint64Ops, image: uint64Image,
		gen:       genUint64(workload.Zipf, 1e9), // heavy duplicates, 4 radix passes
		flatSort:  slices.Sort[[]uint64],
		memBudget: 262144, // 1/8 of a rank's 2 MiB key volume
		warmOps:   3, roundOps: 25,
	}
)

var workloads = []workloadDef{
	{"sort-bulk",
		"P=16 ranks sort 4,194,304 full-range uint64 keys: bandwidth-bound, so local kernels, exchange copies and merge carry the op and splitter rounds are noise.",
		sortBulk},
	{"sort-latency",
		"P=64 ranks sort 65,536 float64 keys, 1,024 per rank: ~60 refinement rounds of tiny collectives, mailbox matching and per-message allocation carry the op and kernels vanish.",
		sortLatency},
	{"sort-spill",
		"P=4 ranks sort 1,048,576 zipf keys under a 256 KiB/rank budget on a real directory: the only workload where internal/store and the spilled pipeline carry the op.",
		sortSpill},
	{"serve-session",
		"Closed loop of 2 keep-alive HTTP clients on an in-process dhsortd; a session is one 65,536-key job plus 8 batched 2,048-key jobs, polled and streamed back: admission, batching, pool, retention.",
		serveSession},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}
