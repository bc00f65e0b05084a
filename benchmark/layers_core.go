package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"dhsort"
	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/hss"
	"dhsort/internal/metrics"
	"dhsort/internal/sortutil"
)

// The spans of the superstep driver, one per layer call.
const (
	spLocalSort = iota
	spSplitters
	spCuts
	spExchangeMerge
	spBarrier
	numSpans
)

var spanNames = [numSpans]string{
	"core.localsort", "core.splitters", "core.cuts", "core.exchange_merge", "core.barrier_wait",
}

// replayOp is one traced op of the superstep driver.
type replayOp struct {
	dur    time.Duration
	spans  [][numSpans]time.Duration // per rank; barrier waits summed
	rounds int                       // histogramming iterations (rank 0's count; identical everywhere)
}

// replayState is what a replay leaves behind for the ALLTOALLV replay: each
// rank's locally sorted partition and its real send counts.
type replayState[K any] struct {
	sorted     [][]K
	sendCounts [][]int
}

// replay runs the four supersteps of core.Sort from here, through the
// layer's public entry points, with a comm.Barrier before each and after the
// last so that time spent waiting for the slowest rank is separated from
// time spent working.
// useHSS swaps the splitter finder for hss.FindSplittersSampled.  Spans go
// to the rank lanes of tr (nil = no lanes) under a fresh op id; keep, when
// non-nil, receives the sorted partitions and send counts.
func (r *sortRig[K]) replay(cfg dhsort.Config, useHSS bool, tr *tracer, lanes []*lane, driver *lane, keep *replayState[K]) (replayOp, error) {
	p := r.spec.p
	ops := r.spec.ops
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	op := replayOp{spans: make([][numSpans]time.Duration, p)}
	opID := -1
	if tr != nil {
		opID = tr.newOp()
	}
	if keep != nil {
		keep.sorted = make([][]K, p)
		keep.sendCounts = make([][]int, p)
	}
	t0 := time.Now()
	err := r.pw.Execute(func(c *dhsort.Comm) error {
		rank := c.Rank()
		local := r.in[rank]
		timed := func(kind int, f func()) {
			s := time.Now()
			f()
			e := time.Now()
			op.spans[rank][kind] += e.Sub(s)
			if tr != nil {
				lanes[rank].add(spanNames[kind], s.Sub(tr.epoch), e.Sub(tr.epoch), opID, opID)
			}
		}
		barrier := func() { timed(spBarrier, func() { comm.Barrier(c) }) }

		barrier()
		ar := &sortutil.Arena[K]{}
		var sorted []K
		timed(spLocalSort, func() {
			sorted = make([]K, len(local))
			copy(sorted, local)
			core.LocalSortKernel(sorted, ops, cfg.Kernel, threads, ar)
		})

		// Targets: capacity prefix sums (Definition 3).  Left unspanned on
		// purpose, like the dispatch and the world's quiesce: what no span
		// owns shows up as core.unattributed_ms.  The barrier comes first
		// so that the allgather does not hide the wait for the slowest
		// local sort.
		barrier()
		capacities := comm.AllgatherOne(c, int64(len(local)))
		targets := make([]int64, p-1)
		var totalN, acc int64
		for _, n := range capacities {
			totalN += n
		}
		for i := 0; i < p-1; i++ {
			acc += capacities[i]
			targets[i] = acc
		}
		tol := int64(cfg.Epsilon * float64(totalN) / (2 * float64(p)))

		var splitters []K
		timed(spSplitters, func() {
			if useHSS {
				splitters = hss.FindSplittersSampled(c, sorted, ops, targets, tol, hss.Config{Seed: 1, Threads: cfg.Threads})
				return
			}
			var iters int
			splitters, iters = core.FindSplitters(c, sorted, ops, targets, tol, cfg)
			if rank == 0 {
				op.rounds = iters
			}
		})

		barrier()
		var cuts []int
		timed(spCuts, func() { cuts = core.ComputeCuts(c, sorted, ops, splitters, targets, cfg) })

		barrier()
		timed(spExchangeMerge, func() { r.outs[rank] = core.ExchangeAndMergeArena(c, sorted, ops, cuts, cfg, ar) })
		// A closing barrier books the wait for the slowest exchange as a
		// wait, instead of leaving it to the world's unspanned quiesce.
		barrier()

		if keep != nil {
			keep.sorted[rank] = sorted
			counts := make([]int, p)
			for d := 0; d < p; d++ {
				counts[d] = cuts[d+1] - cuts[d]
			}
			keep.sendCounts[rank] = counts
		}
		return nil
	})
	op.dur = time.Since(t0)
	if tr != nil {
		driver.add(r.spec.name+".op", t0.Sub(tr.epoch), t0.Sub(tr.epoch)+op.dur, opID, -1)
	}
	return op, err
}

// rankMean is the mean over ranks of one span kind, in milliseconds.
func (o replayOp) rankMean(kind int) float64 {
	var sum time.Duration
	for _, s := range o.spans {
		sum += s[kind]
	}
	return float64(sum) / float64(len(o.spans)) / float64(time.Millisecond)
}

// timeImbalance is max over mean of the ranks' busy time (all spans but the
// barrier waits).
func (o replayOp) timeImbalance() float64 {
	var sum, maxBusy time.Duration
	for _, s := range o.spans {
		busy := s[spLocalSort] + s[spSplitters] + s[spCuts] + s[spExchangeMerge]
		sum += busy
		maxBusy = max(maxBusy, busy)
	}
	if sum == 0 {
		return 1
	}
	return float64(maxBusy) * float64(len(o.spans)) / float64(sum)
}

// outputImbalance is max over mean of the ranks' output sizes.
func outputImbalance[K any](outs [][]K) float64 {
	total, maxN := 0, 0
	for _, o := range outs {
		total += len(o)
		maxN = max(maxN, len(o))
	}
	if total == 0 {
		return 1
	}
	return float64(maxN) * float64(len(outs)) / float64(total)
}

// repeatFor calls f at least minOps times and until budget is used up.
func repeatFor(minOps int, budget time.Duration, f func(i int) error) error {
	t0 := time.Now()
	for i := 0; i < minOps || time.Since(t0) < budget; i++ {
		if err := f(i); err != nil {
			return err
		}
	}
	return nil
}

// tally counts traced ops and the ones that failed verification.
type tally struct {
	attempted, failed int
}

// check books one op's verification verdict.
func (t *tally) check(rc *runCtx, what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		rc.logf("%s FAILED verification: %v", what, err)
	}
}

// measure runs dhsort.Sort ops under cfgFor (one untimed warm-up, then at
// least minOps and until budget), verifies each, and returns the op times
// in ms.  The hooks, when non-nil, run outside the timer right before and
// right after each timed op — after runs before the op's verification, which
// replaces the world's last-job stats.
func (r *sortRig[K]) measure(rc *runCtx, t *tally, what string, cfgFor func(*dhsort.Comm) dhsort.Config, minOps int, budget time.Duration, before, after func()) ([]float64, error) {
	if _, err := r.sort(cfgFor); err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	if err := r.verify(); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", what, err)
	}
	var sample []float64
	err := repeatFor(minOps, budget, func(int) error {
		if before != nil {
			before()
		}
		d, err := r.sort(cfgFor)
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if after != nil {
			after()
		}
		verr := r.verify()
		t.check(rc, what, verr)
		if verr == nil {
			sample = append(sample, float64(d)/float64(time.Millisecond))
		}
		return nil
	})
	if err == nil && len(sample) == 0 {
		err = fmt.Errorf("%s: no op passed verification", what)
	}
	return sample, err
}

// traceShape measures every per-layer metric that replays a sort shape:
// core.*, hss.*, the shape's comm.* and store.* counts, the flat bounds and
// their ratios, and the cost model against the wall.  With own set the
// shape is the workload's own op, and the run's trace.overhead_pct and
// runtime.* come from it as well.
func traceShape[K any](spec *sortSpec[K], rc *runCtx, tr *tracer, out *sink, own bool) (tally, error) {
	var t tally
	share := func(d int) time.Duration { return rc.seconds / time.Duration(d) }
	refBudget, replayBudget, sideBudget := share(8), share(4), share(20)
	if !own {
		refBudget, replayBudget = share(16), share(16)
	}

	rig, err := newSortRig(spec, rc.seed, rc.scratch)
	if err != nil {
		return t, err
	}
	defer rig.close()
	ownCfg := rig.config()
	resident := dhsort.Config{}
	p := spec.p

	// Untraced reference: the shape's own op, with the runtime's allocation
	// counters read outside the timer and the world's message counters read
	// before verification replaces them.
	for i := 1; i < spec.warmOps; i++ { // measure adds the last warm-up itself
		if _, err := rig.sort(constCfg(ownCfg)); err != nil {
			return t, fmt.Errorf("%s: warm-up op: %w", spec.name, err)
		}
	}
	var m0, m1 runtime.MemStats
	var allocBytes, mallocs, gcs uint64
	var msgs, bytes int64
	ownSample, err := rig.measure(rc, &t, spec.name+": untraced op", constCfg(ownCfg), 3, refBudget, func() {
		runtime.ReadMemStats(&m0)
	}, func() {
		runtime.ReadMemStats(&m1)
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		mallocs += m1.Mallocs - m0.Mallocs
		gcs += uint64(m1.NumGC - m0.NumGC)
		st := rig.pw.TotalStats()
		msgs, bytes = st.TotalMessages(), st.TotalBytes()
	})
	if err != nil {
		return t, err
	}
	nOwn := float64(len(ownSample))
	untracedP50 := median(ownSample)
	out.set("comm.msgs_per_op", float64(msgs))
	out.set("comm.bytes_per_op", float64(bytes))
	if own {
		out.set("runtime.alloc_bytes_per_key", float64(allocBytes)/(nOwn*float64(spec.n)))
		out.set("runtime.mallocs_per_op", float64(mallocs)/nOwn)
		out.set("runtime.gc_cycles_per_op", float64(gcs)/nOwn)
	}

	// Resident reference output: what every superstep driver below must
	// reproduce key for key.  Perfect partitioning makes it unique, and the
	// spilled pipeline is bit-identical to the resident one.
	residentSample := ownSample
	if spec.memBudget > 0 {
		residentSample, err = rig.measure(rc, &t, spec.name+": resident op", constCfg(resident), 2, sideBudget, nil, nil)
		if err != nil {
			return t, err
		}
	}
	ref := slices.Clone(rig.outs)
	residentP50 := median(residentSample)

	// Traced ops: the superstep driver, one span per layer call.
	lanes := make([]*lane, p)
	for rank := range lanes {
		lanes[rank] = tr.newLane(fmt.Sprintf("%s rank %d", spec.name, rank))
	}
	driver := tr.newLane(spec.name + " driver")
	var keep replayState[K]
	var base []replayOp
	err = repeatFor(3, replayBudget, func(i int) error {
		op, err := rig.replay(resident, false, tr, lanes, driver, &keep)
		if err != nil {
			return fmt.Errorf("%s: superstep driver: %w", spec.name, err)
		}
		verr := rig.sameAs(ref)
		t.check(rc, spec.name+": superstep driver", verr)
		if verr == nil {
			base = append(base, op)
		}
		return nil
	})
	if err != nil {
		return t, err
	}
	if len(base) == 0 {
		return t, fmt.Errorf("%s: no superstep-driver op reproduced core.Sort's output", spec.name)
	}
	opMS := make([]float64, len(base))
	imb := make([]float64, len(base))
	rounds := make([]float64, len(base))
	spanMS := make([][]float64, numSpans)
	for i, op := range base {
		opMS[i] = float64(op.dur) / float64(time.Millisecond)
		imb[i] = op.timeImbalance()
		rounds[i] = float64(op.rounds)
		for k := 0; k < numSpans; k++ {
			spanMS[k] = append(spanMS[k], op.rankMean(k))
		}
	}
	tracedP50 := median(opMS)
	attributed := 0.0
	for k := 0; k < numSpans; k++ {
		out.setMedian(spanNames[k]+"_ms", spanMS[k])
		attributed += median(spanMS[k])
	}
	// Defined so that the five span medians and this sum to the traced
	// op's median exactly (medians of parts do not add up by themselves).
	out.set("core.unattributed_ms", tracedP50-attributed)
	out.setMedian("core.histogram_rounds", rounds)
	out.setMedian("core.time_imbalance", imb)
	out.set("core.output_imbalance", outputImbalance(rig.outs))
	if own {
		out.set("trace.overhead_pct", (tracedP50/residentP50-1)*100)
	}

	// The same driver with the other exchange backends and the sampled
	// splitter finder; only the swapped superstep's span is reported.
	variants := []struct {
		metric string
		kind   int
		cfg    dhsort.Config
		hss    bool
	}{
		{"core.exchange_merge_ms.overlap", spExchangeMerge, dhsort.Config{Merge: dhsort.MergeOverlap}, false},
		{"core.exchange_merge_ms.rma-put", spExchangeMerge, dhsort.Config{Exchange: dhsort.ExchangeRMAPut}, false},
		{"hss.splitters_ms", spSplitters, resident, true},
	}
	for _, v := range variants {
		var sample []float64
		err := repeatFor(2, sideBudget, func(int) error {
			op, err := rig.replay(v.cfg, v.hss, nil, nil, nil, nil)
			if err != nil {
				return fmt.Errorf("%s: %s: %w", spec.name, v.metric, err)
			}
			verr := rig.sameAs(ref)
			if v.hss {
				// HSS accepts its current bounds at the iteration cap, so
				// its partition sizes may differ from the exact ones; the
				// result must still be the same multiset, globally sorted.
				verr = rig.verifyOutput(false)
			}
			t.check(rc, spec.name+": "+v.metric, verr)
			if verr == nil {
				sample = append(sample, op.rankMean(v.kind))
			}
			return nil
		})
		if err != nil {
			return t, err
		}
		if len(sample) == 0 {
			return t, fmt.Errorf("%s: %s never reproduced core.Sort's output", spec.name, v.metric)
		}
		out.setMedian(v.metric, sample)
	}

	// ALLTOALLV alone, with the op's real send counts.
	a2aMS, err := alltoallvReplay(rig, &keep)
	if err != nil {
		return t, err
	}
	exchanged := float64(spec.n * spec.ops.Bytes())
	out.setMedian("comm.alltoallv_replay_ms", a2aMS)
	out.set("comm.alltoallv_gb_s", exchanged/(median(a2aMS)/1e3)/1e9)
	out.set("ratio.exchange_over_copy", median(a2aMS)/rc.copyMS(int(exchanged)))

	// The op again with the library's own phase recorder and a counting
	// store: Fig. 2(b)'s split, and what the op asks of internal/store.
	if err := phasesAndStore(rig, rc, &t, out, ownCfg, sideBudget); err != nil {
		return t, err
	}

	// Spilled against resident, filesystem against memory store.
	spillCfg := ownCfg
	spillSample := ownSample
	if spec.memBudget == 0 {
		// A resident shape spills at the same point sort-spill does: 1/8
		// of a rank's key volume.
		spillCfg.MemBudget = max(int64(spec.n/p*spec.ops.Bytes()/8), 16)
		dir, err := os.MkdirTemp(rc.scratch, "spill-") // removed with the scratch root
		if err != nil {
			return t, err
		}
		spillCfg.SpillDir = dir
		spillSample, err = rig.measure(rc, &t, spec.name+": spilled op", constCfg(spillCfg), 2, sideBudget, nil, nil)
		if err != nil {
			return t, err
		}
	}
	memCfg := spillCfg
	memCfg.SpillDir = ""
	memCfg.Store = dhsort.NewMemStore()
	memSample, err := rig.measure(rc, &t, spec.name+": spilled op, memory store", constCfg(memCfg), 2, sideBudget, nil, nil)
	if err != nil {
		return t, err
	}
	out.set("core.spill_over_resident", median(spillSample)/residentP50)
	out.set("core.spill_fs_over_mem", median(spillSample)/median(memSample))

	// Flat bounds: the whole input on one rank through the same kernel
	// dispatch, and through slices.Sort.
	flatKernel, flatSlices, err := flatBounds(rig)
	if err != nil {
		return t, err
	}
	out.setMedian("bound.flat_kernel_ms", flatKernel)
	out.setMedian("bound.flat_slices_sort_ms", flatSlices)
	out.set("ratio.op_over_flat_kernel", untracedP50/median(flatKernel))
	out.set("ratio.op_over_flat_slices_sort", untracedP50/median(flatSlices))

	// The cost model against the wall, phase by phase.
	model, err := modelPhases(rig)
	if err != nil {
		return t, err
	}
	out.set("simnet.model_over_wall.localsort", model[metrics.LocalSort]/median(spanMS[spLocalSort]))
	out.set("simnet.model_over_wall.splitters", model[metrics.Histogram]/median(spanMS[spSplitters]))
	out.set("simnet.model_over_wall.exchange_merge", (model[metrics.Exchange]+model[metrics.Merge])/median(spanMS[spExchangeMerge]))
	return t, nil
}

// alltoallvReplay times comm.AlltoallvWith alone on the sorted partitions
// and send counts a superstep-driver op left behind: barrier, exchange,
// barrier, timed on rank 0.
func alltoallvReplay[K any](r *sortRig[K], keep *replayState[K]) ([]float64, error) {
	var sample []float64
	for rep := 0; rep < 5; rep++ {
		var d time.Duration
		err := r.pw.Execute(func(c *dhsort.Comm) error {
			rank := c.Rank()
			comm.Barrier(c)
			t0 := time.Now()
			recv, _ := comm.AlltoallvWith(c, keep.sorted[rank], keep.sendCounts[rank], comm.AlltoallAuto, 1)
			comm.Barrier(c)
			if rank == 0 {
				d = time.Since(t0)
			}
			if len(recv) != len(r.in[rank]) {
				return fmt.Errorf("alltoallv replay: rank %d received %d keys, want %d", rank, len(recv), len(r.in[rank]))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if rep > 0 { // the first pass warms the path
			sample = append(sample, float64(d)/float64(time.Millisecond))
		}
	}
	return sample, nil
}

// phasesAndStore runs the shape's own op with the library's phase Recorder
// on every rank and a counting store behind Config.Store.
func phasesAndStore[K any](r *sortRig[K], rc *runCtx, t *tally, out *sink, ownCfg dhsort.Config, budget time.Duration) error {
	p := r.spec.p
	inner := dhsort.NewMemStore()
	if ownCfg.SpillDir != "" {
		inner = dhsort.NewFSStore(ownCfg.SpillDir)
	}
	cs := &countingStore{inner: inner}
	recs := make([]*metrics.Recorder, p)
	cfgFor := func(c *dhsort.Comm) dhsort.Config {
		cfg := ownCfg
		cfg.Store = cs
		cfg.Recorder = metrics.ForComm(c)
		recs[c.Rank()] = cfg.Recorder
		return cfg
	}
	phaseMS := make([][]float64, metrics.NumPhases)
	var counts []storeCounts
	var busyShare []float64
	what := r.spec.name + ": recorded op"
	_, err := r.measure(rc, t, what, cfgFor, 3, budget, nil, func() {
		var total time.Duration
		for ph := metrics.Phase(0); ph < metrics.NumPhases; ph++ {
			var sum time.Duration
			for _, rec := range recs {
				sum += rec.Times[ph]
			}
			total += sum
			phaseMS[ph] = append(phaseMS[ph], float64(sum)/float64(p)/float64(time.Millisecond))
		}
		sc := cs.reset()
		counts = append(counts, sc)
		busyShare = append(busyShare, float64(sc.busy)/float64(total))
	})
	if err != nil {
		return err
	}
	// The first timed op's counters also hold measure's warm-up op.
	counts, busyShare = counts[1:], busyShare[1:]
	for ph, name := range [metrics.NumPhases]string{
		metrics.LocalSort: "core.phase_ms.localsort", metrics.Histogram: "core.phase_ms.histogram",
		metrics.Exchange: "core.phase_ms.exchange", metrics.Merge: "core.phase_ms.merge", metrics.Other: "core.phase_ms.other",
	} {
		out.setMedian(name, phaseMS[ph])
	}
	last := counts[len(counts)-1]
	out.set("store.calls_per_op", float64(last.calls))
	out.set("store.runs_per_op", float64(last.runs))
	out.set("store.seeks_per_op", float64(last.seeks))
	out.set("store.write_mib_per_op", float64(last.writeBytes)/(1<<20))
	out.set("store.read_mib_per_op", float64(last.readBytes)/(1<<20))
	out.setMedian("store.busy_share", busyShare)
	return nil
}

// flatBounds sorts the shape's whole input on one rank: through
// dhsort.Sort at P=1 (the same kernel dispatch, no exchange) and through
// slices.Sort (the plain single-threaded baseline).  Both are verified.
func flatBounds[K any](r *sortRig[K]) (kernelMS, slicesMS []float64, err error) {
	var flat []K
	for _, part := range r.in {
		flat = append(flat, part...)
	}
	check := func(out []K) error { return verifySorted(out, r.spec.image, r.want) }
	for rep := 0; rep < 3; rep++ {
		var out []K
		t0 := time.Now()
		err := dhsort.Run(1, nil, func(c *dhsort.Comm) error {
			var err error
			out, err = dhsort.Sort(c, flat, r.spec.ops, dhsort.Config{})
			return err
		})
		d := time.Since(t0)
		if err == nil {
			err = check(out)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: flat kernel: %w", r.spec.name, err)
		}
		if rep > 0 {
			kernelMS = append(kernelMS, float64(d)/float64(time.Millisecond))
		}
	}
	for rep := 0; rep < 2; rep++ {
		buf := slices.Clone(flat)
		t0 := time.Now()
		r.spec.flatSort(buf)
		d := time.Since(t0)
		if err := check(buf); err != nil {
			return nil, nil, fmt.Errorf("%s: slices.Sort: %w", r.spec.name, err)
		}
		slicesMS = append(slicesMS, float64(d)/float64(time.Millisecond))
	}
	return kernelMS, slicesMS, nil
}

// modelPhases runs the shape once under the SuperMUC cost model
// (16 ranks/node, PGAS pricing, one thread per rank) and returns the mean
// modelled time per phase in ms: ROADMAP item 1's calibration rider.
func modelPhases[K any](r *sortRig[K]) ([metrics.NumPhases]float64, error) {
	var model [metrics.NumPhases]float64
	p := r.spec.p
	recs := make([]*metrics.Recorder, p)
	outs := make([][]K, p)
	err := dhsort.Run(p, dhsort.SuperMUCModel(16, true), func(c *dhsort.Comm) error {
		rec := metrics.ForComm(c)
		recs[c.Rank()] = rec
		out, err := dhsort.Sort(c, r.in[c.Rank()], r.spec.ops, dhsort.Config{Threads: 1, Recorder: rec})
		outs[c.Rank()] = out
		return err
	})
	if err != nil {
		return model, fmt.Errorf("%s: modelled run: %w", r.spec.name, err)
	}
	for rank := range outs {
		if len(outs[rank]) != len(r.in[rank]) {
			return model, fmt.Errorf("%s: modelled run: rank %d holds %d elements, want %d", r.spec.name, rank, len(outs[rank]), len(r.in[rank]))
		}
	}
	for ph := range model {
		var sum time.Duration
		for _, rec := range recs {
			sum += rec.Times[ph]
		}
		model[ph] = float64(sum) / float64(p) / float64(time.Millisecond)
	}
	return model, nil
}

// traced is the traced run of a library sort workload: its own shape layer
// by layer, then a short service run so that every per-layer metric of the
// contract is measured in every traced run.
func (s *sortSpec[K]) traced(rc *runCtx, tr *tracer, out *sink) (int, int, error) {
	t, err := traceShape(s, rc, tr, out, true)
	if err != nil {
		return t.attempted, t.failed, err
	}
	st, err := serveSession.traceService(rc, tr, out, false)
	return t.attempted + st.attempted, t.failed + st.failed, err
}
