package main

import (
	"fmt"
	"runtime"
	"time"
)

// liveHeap is the heap still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceService measures the server.* and api.* metrics: traced sessions
// over HTTP (client spans, JobStatus timestamps, MetricsSnapshot), then the
// same sessions straight into the engine.  With own set the sessions are
// serve-session's own op: they run for a share of rc.seconds, an untraced
// reference window precedes them, and trace.overhead_pct and runtime.* come
// from the two.  Otherwise a short fixed run fills the metrics.
func (s *serveSpec) traceService(rc *runCtx, tr *tracer, out *sink, own bool) (tally, error) {
	var t tally
	warmN, timedN, limit := 3, 12, noLimit
	if own {
		warmN, timedN, limit = s.warmSessions, s.roundSessions, rc.seconds/4
	}
	plans, err := s.plans(rc.seed, warmN+timedN)
	if err != nil {
		return t, err
	}
	warm, timed := splitPlans(plans, warmN)

	// window runs warm-up plus timed sessions on a fresh server; before and
	// after bracket the timed sessions.
	window := func(withHTTP bool, tr *tracer, lim time.Duration, before, after func()) (sessionsResult, *serveRig, error) {
		rig, err := newServeRig(rc.scratch, withHTTP)
		if err != nil {
			return sessionsResult{}, nil, err
		}
		mk := httpClients(rig)
		if !withHTTP {
			mk = func(int) transport { return engineTransport{rig.eng} }
		}
		if w := s.runSessions(rc, mk, warm, noLimit, nil); w.failed > 0 {
			rig.close()
			return sessionsResult{}, nil, fmt.Errorf("serve-session: %d of %d warm-up sessions failed", w.failed, w.attempted)
		}
		before()
		res := s.runSessions(rc, mk, timed, lim, tr)
		after()
		t.attempted += res.attempted
		t.failed += res.failed
		if len(res.ops) == 0 {
			rig.close()
			return res, nil, fmt.Errorf("serve-session: no session succeeded (%d attempted)", res.attempted)
		}
		return res, rig, nil
	}
	nop := func() {}

	untracedP50 := 0.0
	if own {
		var m0, m1 runtime.MemStats
		ref, rig, err := window(true, nil, rc.seconds/8,
			func() { runtime.ReadMemStats(&m0) }, func() { runtime.ReadMemStats(&m1) })
		if err != nil {
			return t, err
		}
		rig.close()
		n := float64(ref.attempted)
		out.set("runtime.alloc_bytes_per_key", float64(m1.TotalAlloc-m0.TotalAlloc)/(n*float64(s.sessionKeys())))
		out.set("runtime.mallocs_per_op", float64(m1.Mallocs-m0.Mallocs)/n)
		out.set("runtime.gc_cycles_per_op", float64(m1.NumGC-m0.NumGC)/n)
		untracedP50 = median(ms(ref.ops))
	}

	// Traced sessions, with the heap that stays reachable measured around
	// them: the server keeps every finished job's output.
	var before, after uint64
	res, rig, err := window(true, tr, limit, func() { before = liveHeap() }, func() { after = liveHeap() })
	if err != nil {
		return t, err
	}
	snap := rig.eng.MetricsSnapshot()
	rig.close()
	httpP50 := median(ms(res.ops))
	if own {
		out.set("trace.overhead_pct", (httpP50/untracedP50-1)*100)
	}

	var submit, status, resultMS, resultMBs, lag []float64
	var wait, run [2][]float64 // [small, solo]
	polls := 0
	for _, j := range res.jobs {
		submit = append(submit, durMS(j.submit))
		for _, d := range j.status {
			status = append(status, durMS(d))
		}
		polls += j.polls
		lag = append(lag, durMS(j.notifyLag))
		k := 0
		if j.solo {
			k = 1
			resultMS = append(resultMS, durMS(j.result))
			resultMBs = append(resultMBs, float64(j.resultBytes)/1e6/j.result.Seconds())
		}
		wait[k] = append(wait[k], durMS(j.queueWait))
		run[k] = append(run[k], durMS(j.run))
	}
	out.setMedian("api.submit_ms", submit)
	out.setMedian("api.status_ms", status)
	out.set("api.polls_per_job", float64(polls)/float64(len(res.jobs)))
	out.setMedian("api.result_ms", resultMS)
	out.setMedian("api.result_mb_s", resultMBs)
	out.setMedian("server.queue_wait_ms.small", wait[0])
	out.setMedian("server.queue_wait_ms.solo", wait[1])
	out.setMedian("server.run_ms.small", run[0])
	out.setMedian("server.run_ms.solo", run[1])
	out.setMedian("server.notify_lag_ms", lag)

	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	out.set("server.batch_fill", ratio(snap.BatchedJobs, snap.Batches))
	out.set("server.pool_hit_ratio", ratio(snap.Pool.Hits, snap.Pool.Hits+snap.Pool.Misses))
	out.set("server.warm_hit_ratio", ratio(snap.Warm.Hits, snap.Warm.Hits+snap.Warm.Misses))
	out.set("server.rejected", float64(snap.RejectedQuota+snap.RejectedQueueFull+snap.RejectedDraining))
	out.set("server.retained_kib_per_job", (float64(after)-float64(before))/1024/float64(len(res.jobs)))

	// The same sessions with no HTTP in between.
	eng, rig, err := window(false, nil, limit, nop, nop)
	if err != nil {
		return t, err
	}
	rig.close()
	engP50 := median(ms(eng.ops))
	out.set("server.session_engine_ms", engP50)
	out.set("api.session_overhead_ms", httpP50-engP50)
	return t, nil
}

// traced is the traced run of serve-session: its own sessions, then the
// solo job's shape through the library so that every per-layer metric of
// the contract is measured in every traced run.
func (s *serveSpec) traced(rc *runCtx, tr *tracer, out *sink) (int, int, error) {
	t, err := s.traceService(rc, tr, out, true)
	if err != nil {
		return t.attempted, t.failed, err
	}
	st, err := traceShape(soloShape, rc, tr, out, false)
	return t.attempted + st.attempted, t.failed + st.failed, err
}
