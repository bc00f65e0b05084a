package main

import (
	"fmt"
	"os"
	"time"

	"dhsort"
	"dhsort/internal/keys"
	"dhsort/internal/workload"
)

// sortSpec is one library sort shape: P ranks sorting n keys of type K
// through dhsort.Sort on a PersistentWorld.
type sortSpec[K any] struct {
	name string
	p, n int
	ops  keys.Ops[K]
	// image is an order-preserving 64-bit image of a key: the checksum and
	// the "equals the reference output" comparison work on images.
	image func(K) uint64
	// gen returns rank's share of the seeded input.
	gen func(seed uint64, rank, n int) ([]K, error)
	// flatSort is the plain single-threaded baseline (slices.Sort).
	flatSort func([]K)
	// memBudget is the per-rank resident budget in bytes (0 = resident).
	memBudget int64
	// warmOps run untimed at the start of every round; roundOps caps the
	// timed ops of one round (one world, one set-up).
	warmOps, roundOps int
}

// generate draws every rank's input and its multiset digest.
func (s *sortSpec[K]) generate(seed uint64, p int) ([][]K, checksum, error) {
	in := make([][]K, p)
	var want checksum
	for r := 0; r < p; r++ {
		ks, err := s.gen(seed, r, workload.LocalSize(s.n, p, r))
		if err != nil {
			return nil, checksum{}, fmt.Errorf("%s: generate rank %d: %w", s.name, r, err)
		}
		in[r] = ks
		want = want.merge(checksumOf(ks, s.image))
	}
	return in, want, nil
}

// sortRig is one set-up of a sort shape: generated inputs, their digest, a
// persistent world, and the outputs of the last op.
type sortRig[K any] struct {
	spec     *sortSpec[K]
	pw       *dhsort.PersistentWorld
	in       [][]K
	want     checksum
	outs     [][]K
	spillDir string // a fresh directory under the run's scratch root ("" when resident)
}

// newSortRig generates the inputs from seed and builds the world.  scratch
// roots the spill directory of budgeted shapes.
func newSortRig[K any](spec *sortSpec[K], seed uint64, scratch string) (*sortRig[K], error) {
	in, want, err := spec.generate(seed, spec.p)
	if err != nil {
		return nil, err
	}
	r := &sortRig[K]{spec: spec, in: in, want: want, outs: make([][]K, spec.p)}
	if spec.memBudget > 0 {
		r.spillDir, err = os.MkdirTemp(scratch, "spill-")
		if err != nil {
			return nil, fmt.Errorf("%s: spill dir: %w", spec.name, err)
		}
	}
	r.pw, err = dhsort.NewPersistentWorld(spec.p, nil)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("%s: world: %w", spec.name, err)
	}
	return r, nil
}

// close releases the world and removes the spill directory.
func (r *sortRig[K]) close() {
	if r.pw != nil {
		r.pw.Close()
	}
	if r.spillDir != "" {
		os.RemoveAll(r.spillDir)
	}
}

// config is the workload's own sort configuration: the zero Config, plus
// the budget and a filesystem spill directory on budgeted shapes.
func (r *sortRig[K]) config() dhsort.Config {
	cfg := dhsort.Config{}
	if r.spec.memBudget > 0 {
		cfg.MemBudget = r.spec.memBudget
		cfg.SpillDir = r.spillDir
	}
	return cfg
}

// sort runs one op: dhsort.Sort on every rank, timed from the Execute call
// to its return (all ranks done, including the world's quiesce).  cfgFor
// lets a caller hand each rank its own Config (a rank-confined Recorder).
func (r *sortRig[K]) sort(cfgFor func(c *dhsort.Comm) dhsort.Config) (time.Duration, error) {
	t0 := time.Now()
	err := r.pw.Execute(func(c *dhsort.Comm) error {
		out, err := dhsort.Sort(c, r.in[c.Rank()], r.spec.ops, cfgFor(c))
		r.outs[c.Rank()] = out
		return err
	})
	return time.Since(t0), err
}

// constCfg adapts one shared Config to sort's per-rank hook.
func constCfg(cfg dhsort.Config) func(*dhsort.Comm) dhsort.Config {
	return func(*dhsort.Comm) dhsort.Config { return cfg }
}

// verify checks the last op's outputs outside the timer: every rank holds
// exactly its input count (perfect partitioning), the partitions are
// globally sorted, and the multiset digest equals the input's.
func (r *sortRig[K]) verify() error { return r.verifyOutput(true) }

// verifyOutput is verify with the per-rank count check optional: a sampled
// splitter finder that stops at its iteration cap still has to sort, but
// may leave ranks unevenly filled.
func (r *sortRig[K]) verifyOutput(exactCounts bool) error {
	p := r.spec.p
	sums := make([]checksum, p)
	sorted := false
	err := r.pw.Execute(func(c *dhsort.Comm) error {
		rank := c.Rank()
		ok := dhsort.IsGloballySorted(c, r.outs[rank], r.spec.ops)
		if rank == 0 {
			sorted = ok
		}
		sums[rank] = checksumOf(r.outs[rank], r.spec.image)
		return nil
	})
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	var got checksum
	for rank := 0; rank < p; rank++ {
		if exactCounts && len(r.outs[rank]) != len(r.in[rank]) {
			return fmt.Errorf("rank %d holds %d elements, want %d", rank, len(r.outs[rank]), len(r.in[rank]))
		}
		got = got.merge(sums[rank])
	}
	if !sorted {
		return fmt.Errorf("IsGloballySorted is false")
	}
	return matchChecksum(got, r.want)
}

// sameAs reports whether the last op's outputs equal ref rank by rank and
// key by key — how the traced superstep drivers assert they computed what
// core.Sort computes.
func (r *sortRig[K]) sameAs(ref [][]K) error {
	for rank := range ref {
		if len(r.outs[rank]) != len(ref[rank]) {
			return fmt.Errorf("rank %d holds %d elements, reference %d", rank, len(r.outs[rank]), len(ref[rank]))
		}
		for i, k := range ref[rank] {
			if r.spec.image(r.outs[rank][i]) != r.spec.image(k) {
				return fmt.Errorf("rank %d index %d differs from the reference output", rank, i)
			}
		}
	}
	return nil
}

// roundResult is what one round (one set-up, up to roundOps timed ops)
// contributes to the end-to-end metrics.
type roundResult struct {
	setup     time.Duration   // input generation, construction, warm-up ops
	window    time.Duration   // wall time of the timed ops and their verification
	busy      time.Duration   // denominator of keys_per_s
	ops       []time.Duration // op times of verified-correct ops
	keys      int64           // keys in verified-correct ops
	attempted int
	failed    int
}

// round runs one untraced round of the sort shape.
func (s *sortSpec[K]) round(rc *runCtx, remaining time.Duration) (roundResult, error) {
	var rr roundResult
	t0 := time.Now()
	rig, err := newSortRig(s, rc.seed, rc.scratch)
	if err != nil {
		return rr, err
	}
	defer rig.close()
	cfg := constCfg(rig.config())
	for i := 0; i < s.warmOps; i++ {
		if _, err := rig.sort(cfg); err != nil {
			return rr, fmt.Errorf("%s: warm-up op: %w", s.name, err)
		}
		if err := rig.verify(); err != nil {
			return rr, fmt.Errorf("%s: warm-up op: %w", s.name, err)
		}
	}
	rr.setup = time.Since(t0)

	w0 := time.Now()
	for i := 0; i < s.roundOps && time.Since(w0) < remaining; i++ {
		rr.attempted++
		d, err := rig.sort(cfg)
		if err != nil {
			// A failed job breaks the persistent world; nothing more can
			// run on it.
			rr.failed++
			rr.window = time.Since(w0)
			return rr, fmt.Errorf("%s: op %d: %w", s.name, i, err)
		}
		if err := rig.verify(); err != nil {
			rr.failed++
			rc.logf("%s: op %d FAILED verification: %v", s.name, i, err)
			continue
		}
		rr.ops = append(rr.ops, d)
		rr.busy += d
		rr.keys += int64(s.n)
	}
	rr.window = time.Since(w0)
	return rr, nil
}
