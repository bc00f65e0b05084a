package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"time"

	"dhsort"
	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/keys"
	"dhsort/internal/prng"
	"dhsort/internal/psort"
	"dhsort/internal/sortutil"
	"dhsort/internal/workload"
)

// fixedProbes measures the per-layer metrics that do not depend on the
// workload: collectives at fixed world sizes, the local kernels, the store
// called directly, and the copy and loopback bounds.  They run in every
// traced run so that every metric of the contract is measured there.
func fixedProbes(rc *runCtx, out *sink) error {
	if err := commProbes(out); err != nil {
		return err
	}
	if err := kernelProbes(out); err != nil {
		return err
	}
	if err := allStoreProbes(rc, out); err != nil {
		return err
	}
	out.set("bound.copy_32mib_gb_s", rc.copyGBs())
	mbs, err := loopbackHTTP(soloResultBody(rc.seed))
	if err != nil {
		return err
	}
	out.setMedian("bound.loopback_http_mb_s", mbs)
	out.set("ratio.result_over_loopback", out.get("api.result_mb_s")/median(mbs))
	return nil
}

// copyBytes is what sort-bulk exchanges: 4,194,304 keys of 8 bytes.
const copyBytes = 32 << 20

// copyGBs is the bandwidth of one thread's copy() of copyBytes, measured
// once per run.  On a host whose last-level cache is larger than the buffer
// this is a same-size copy bound, not DRAM bandwidth; hostInfo records the
// cache size beside it.
func (rc *runCtx) copyGBs() float64 {
	if rc.copyBound == 0 {
		src := make([]byte, copyBytes)
		dst := make([]byte, copyBytes)
		for i := range src {
			src[i] = byte(i)
		}
		var sample []float64
		for rep := 0; rep < 12; rep++ {
			t0 := time.Now()
			copy(dst, src)
			d := time.Since(t0)
			if rep >= 2 { // the first passes fault the pages in
				sample = append(sample, copyBytes/d.Seconds()/1e9)
			}
		}
		rc.copyBound = median(sample)
	}
	return rc.copyBound
}

// copyMS is how long one copy of n bytes takes at the copy bound.
func (rc *runCtx) copyMS(n int) float64 {
	return float64(n) / (rc.copyGBs() * 1e9) * 1e3
}

// onWorld times fn on a fresh persistent world of p ranks: iters calls
// between two barriers, measured on rank 0, repeated reps times after one
// warming pass.  It returns microseconds per call.
func onWorld(p, iters, reps int, fn func(c *dhsort.Comm)) ([]float64, error) {
	pw, err := dhsort.NewPersistentWorld(p, nil)
	if err != nil {
		return nil, err
	}
	defer pw.Close()
	var sample []float64
	for rep := 0; rep <= reps; rep++ {
		var d time.Duration
		err := pw.Execute(func(c *dhsort.Comm) error {
			comm.Barrier(c)
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				fn(c)
			}
			comm.Barrier(c)
			if c.Rank() == 0 {
				d = time.Since(t0)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if rep > 0 {
			sample = append(sample, float64(d)/float64(time.Microsecond)/float64(iters))
		}
	}
	return sample, nil
}

func sumInt64(a, b int64) int64 { return a + b }

// commProbes measures the mailbox and the collectives splitter refinement
// is made of, at the world sizes of the roadmap.
func commProbes(out *sink) error {
	// Ping-pong: half the round trip of a one-element message.
	pp, err := onWorld(2, 2000, 5, func(c *dhsort.Comm) {
		if c.Rank() == 0 {
			comm.SendOne(c, 1, 1, int64(1))
			comm.RecvOne[int64](c, 1, 2)
		} else {
			comm.RecvOne[int64](c, 0, 1)
			comm.SendOne(c, 0, 2, int64(1))
		}
	})
	if err != nil {
		return fmt.Errorf("comm probe: %w", err)
	}
	for i := range pp {
		pp[i] /= 2
	}
	out.setMedian("comm.pingpong_us", pp)

	// ALLREDUCE of P-1 int64s: the refinement round's payload.
	for _, p := range []int{2, 16, 64} {
		bufs := make([][]int64, p)
		for r := range bufs {
			bufs[r] = make([]int64, p-1)
		}
		s, err := onWorld(p, 200, 5, func(c *dhsort.Comm) {
			comm.AllreduceInPlace(c, bufs[c.Rank()], sumInt64)
		})
		if err != nil {
			return fmt.Errorf("comm probe: %w", err)
		}
		out.setMedian(fmt.Sprintf("comm.allreduce_p%d_us", p), s)
	}

	probes := []struct {
		metric string
		iters  int
		fn     func(c *dhsort.Comm)
	}{
		{"comm.allgather_p64_us", 100, func(c *dhsort.Comm) { comm.AllgatherOne(c, int64(c.Rank())) }},
		{"comm.barrier_p64_us", 200, func(c *dhsort.Comm) { comm.Barrier(c) }},
		// sort-latency's exchange: 1,024 keys per rank, 16 to each peer.
		{"comm.alltoallv_small_p64_us", 20, func(c *dhsort.Comm) {
			data := make([]float64, 1024)
			counts := make([]int, 64)
			for i := range counts {
				counts[i] = 16
			}
			comm.AlltoallvWith(c, data, counts, comm.AlltoallAuto, 1)
		}},
	}
	for _, pr := range probes {
		s, err := onWorld(64, pr.iters, 5, pr.fn)
		if err != nil {
			return fmt.Errorf("comm probe: %w", err)
		}
		out.setMedian(pr.metric, s)
	}

	// An empty Execute on a warm world, and building the world.
	pw, err := dhsort.NewPersistentWorld(64, nil)
	if err != nil {
		return fmt.Errorf("comm probe: %w", err)
	}
	var dispatch []float64
	for i := 0; i < 60; i++ {
		t0 := time.Now()
		err := pw.Execute(func(*dhsort.Comm) error { return nil })
		d := time.Since(t0)
		if err != nil {
			pw.Close()
			return fmt.Errorf("comm probe: %w", err)
		}
		if i >= 10 {
			dispatch = append(dispatch, float64(d)/float64(time.Microsecond))
		}
	}
	pw.Close()
	out.setMedian("comm.execute_dispatch_p64_us", dispatch)

	// NewPersistentWorld returns before its rank goroutines have built
	// their communicators, so the clock stops when the new world has run its
	// first (empty) job.
	var build []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		pw, err := dhsort.NewPersistentWorld(64, nil)
		if err == nil {
			err = pw.Execute(func(*dhsort.Comm) error { return nil })
		}
		d := time.Since(t0)
		if pw != nil {
			pw.Close()
		}
		if err != nil {
			return fmt.Errorf("comm probe: %w", err)
		}
		build = append(build, float64(d)/float64(time.Microsecond))
	}
	out.setMedian("comm.world_build_p64_us", build)
	return nil
}

// kernelKeys is the input size of every kernel probe.
const kernelKeys = 1 << 20

// kernelRate times sort over fresh copies of in (reps passes after one
// warming pass), checks every output with sorted, and returns Mkeys/s.
func kernelRate[K any](in []K, reps int, sort func([]K) []K, sorted func([]K) bool) ([]float64, error) {
	var sample []float64
	for rep := 0; rep <= reps; rep++ {
		buf := slices.Clone(in)
		t0 := time.Now()
		res := sort(buf)
		d := time.Since(t0)
		if len(res) != len(in) || !sorted(res) {
			return nil, fmt.Errorf("kernel output is not sorted")
		}
		if rep > 0 {
			sample = append(sample, float64(len(in))/1e6/d.Seconds())
		}
	}
	return sample, nil
}

func lessU64(a, b uint64) bool { return a < b }

// inPlace adapts an in-place sort to kernelRate.
func inPlace[K any](f func([]K)) func([]K) []K {
	return func(a []K) []K { f(a); return a }
}

// radixProbe times the radix kernel on in through core.LocalSortKernel.  The
// scratch arena is reused across passes, so the warming pass pays for its
// pages and the timed ones measure the kernel.
func radixProbe[K any](out *sink, metric string, in []K, ops keys.Ops[K]) error {
	ar := &sortutil.Arena[K]{}
	s, err := kernelRate(in, 5, inPlace(func(a []K) {
		core.LocalSortKernel(a, ops, core.KernelRadix, 1, ar)
	}), func(a []K) bool { return sortutil.IsSorted(a, ops.Less) })
	if err != nil {
		return fmt.Errorf("%s: %w", metric, err)
	}
	out.setMedian(metric, s)
	return nil
}

// kernelProbes measures the local kernels on 2^20 keys: one thread, except
// the fork-join task merge sort, which gets GOMAXPROCS.
func kernelProbes(out *sink) error {
	gen := func(dist workload.Distribution, span uint64) ([]uint64, error) {
		return workload.Spec{Dist: dist, Seed: 11, Span: span}.Rank(0, kernelKeys)
	}
	full, err := gen(workload.Uniform, 0)
	if err != nil {
		return err
	}
	narrow, err := gen(workload.Uniform, 1e9)
	if err != nil {
		return err
	}
	normal, err := gen(workload.Normal, 0)
	if err != nil {
		return err
	}
	floats := workload.Floats(normal)
	pairs := make([]dhsort.Pair[uint64, uint64], kernelKeys)
	for i, k := range full {
		pairs[i] = dhsort.Pair[uint64, uint64]{Key: k, Val: uint64(i)}
	}
	// Sixteen sorted runs of 2^16 keys: a 16-way merge of 2^20 keys.
	runs := make([][]uint64, 16)
	for i := range runs {
		runs[i] = slices.Clone(full[i*kernelKeys/16 : (i+1)*kernelKeys/16])
		slices.Sort(runs[i])
	}

	// The radix kernels run through the dispatch core.Sort uses (forced to
	// radix, one thread), so a shortcut for one key type that slows the
	// generic path shows on the others.
	if err := radixProbe(out, "sortutil.radix_u64_full_mkeys_s", full, dhsort.Uint64Ops); err != nil {
		return err
	}
	if err := radixProbe(out, "sortutil.radix_u64_span1e9_mkeys_s", narrow, dhsort.Uint64Ops); err != nil {
		return err
	}
	if err := radixProbe(out, "sortutil.radix_f64_mkeys_s", floats, dhsort.Float64Ops); err != nil {
		return err
	}
	if err := radixProbe(out, "sortutil.radix_pair_mkeys_s", pairs, dhsort.PairOps[uint64, uint64](dhsort.Uint64Ops)); err != nil {
		return err
	}

	sortedU64 := func(a []uint64) bool { return slices.IsSorted(a) }
	u64 := []struct {
		metric string
		sort   func([]uint64) []uint64
	}{
		{"sortutil.introsort_u64_mkeys_s", inPlace(func(a []uint64) { sortutil.Sort(a, lessU64) })},
		{"psort.taskmerge_u64_mkeys_s", inPlace(func(a []uint64) {
			psort.ParallelTaskMergeSort(a, lessU64, runtime.GOMAXPROCS(0))
		})},
		{"sortutil.merge_loser_k16_mkeys_s", func([]uint64) []uint64 { return sortutil.MergeKLoser(runs, lessU64) }},
		{"psort.merge_binary_k16_mkeys_s", func([]uint64) []uint64 { return psort.ParallelMergeKBinary(runs, lessU64, 1) }},
	}
	for _, k := range u64 {
		s, err := kernelRate(full, 5, k.sort, sortedU64)
		if err != nil {
			return fmt.Errorf("%s: %w", k.metric, err)
		}
		out.setMedian(k.metric, s)
	}
	return nil
}

// soloResultBody is the /result body of a solo job: 65,536 sorted decimal
// keys, one per line.
func soloResultBody(seed uint64) []byte {
	src := prng.NewSplitMix64(seed)
	ks := make([]uint64, serveSession.soloN)
	for i := range ks {
		ks[i] = src.Uint64() % serverSpan
	}
	slices.Sort(ks)
	var body []byte
	for _, k := range ks {
		body = strconv.AppendUint(body, k, 10)
		body = append(body, '\n')
	}
	return body
}

// loopbackHTTP is the bound /result streaming is held against: a bare
// net/http handler writing the same body in one call, read to the end by a
// keep-alive client on loopback.  It returns MB/s per fetch.
func loopbackHTTP(body []byte) ([]float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback bound: %w", err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(body)
	})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	var sample []float64
	for i := 0; i < 40; i++ {
		t0 := time.Now()
		resp, err := client.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			return nil, fmt.Errorf("loopback bound: %w", err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		d := time.Since(t0)
		if err != nil || n != int64(len(body)) {
			return nil, fmt.Errorf("loopback bound: read %d of %d bytes: %v", n, len(body), err)
		}
		if i >= 5 {
			sample = append(sample, float64(n)/1e6/d.Seconds())
		}
	}
	return sample, nil
}
