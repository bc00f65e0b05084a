package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"dhsort/internal/api"
	"dhsort/internal/prng"
	"dhsort/internal/server"
	"dhsort/internal/workload"
)

// serveSpec is the service workload: a closed loop of keep-alive clients
// against an in-process dhsortd (server.New behind api.Handler on a loopback
// listener).  One op is a session: POST one generated solo job and
// smallJobs inline jobs back to back, then poll each status at pollEvery and
// stream and check every result.
type serveSpec struct {
	clients      int // fixed at the box's 2 cores; one keep-alive connection each
	soloN        int // keys of the generated job (runs alone on a pooled world)
	smallN       int // keys of each inline job (batch-eligible: <= 4096)
	smallJobs    int
	pollEvery    time.Duration
	warmSessions int // per client, untimed, at the start of every round
	// roundSessions is the fixed session count per client per round.  The
	// server never evicts results, so a fixed count per server instance keeps
	// peak_rss_mib a property of the code, not of how many sessions a fast
	// run squeezes into --seconds.
	roundSessions int
}

var serveSession = &serveSpec{
	clients: 2, soloN: 1 << 16, smallN: 2048, smallJobs: 8,
	pollEvery: time.Millisecond, warmSessions: 10, roundSessions: 100,
}

// serverP is dhsortd's default world size, which the solo job inherits.
const serverP = 8

// serverSpan is the span dhsortd's normalize gives a generated job that
// names none.
const serverSpan = 1e9

func (s *serveSpec) sessionKeys() int64 { return int64(s.soloN + s.smallJobs*s.smallN) }

// jobPlan is one job of a session, fully prepared during set-up: the spec,
// its encoded POST body, and the digest its result must match.
type jobPlan struct {
	spec server.JobSpec
	body []byte
	want checksum
	solo bool
}

type sessionPlan struct {
	jobs []jobPlan
}

// soloShape is the solo job as a library sort shape: what the server runs
// for it, minus the service.  The traced run replays it for the core.* and
// comm.* metrics of serve-session.
var soloShape = &sortSpec[uint64]{
	name: "serve-session.solo", p: serverP, n: serveSession.soloN,
	ops: sortBulk.ops, image: uint64Image,
	gen:      genUint64(workload.Uniform, serverSpan),
	flatSort: sortBulk.flatSort,
	warmOps:  3,
}

// plan derives session k of client c from the run seed: the solo job's
// workload seed and every inline key.
func (s *serveSpec) plan(seed uint64, c, k int) (sessionPlan, error) {
	mix := prng.NewSplitMix64(seed ^ uint64(c+1)<<40 ^ uint64(k+1)<<8)
	var sp sessionPlan
	jobSeed := mix.Uint64() | 1 // 0 would mean "server default"
	solo := server.JobSpec{N: s.soloN, Dist: string(workload.Uniform), Seed: jobSeed}
	var want checksum
	for r := 0; r < serverP; r++ {
		ks, err := workload.Spec{Dist: workload.Uniform, Seed: jobSeed, Span: serverSpan}.Rank(r, workload.LocalSize(s.soloN, serverP, r))
		if err != nil {
			return sp, err
		}
		want = want.merge(checksumOf(ks, uint64Image))
	}
	sp.jobs = append(sp.jobs, jobPlan{spec: solo, want: want, solo: true})
	for j := 0; j < s.smallJobs; j++ {
		ks := make([]uint64, s.smallN)
		for i := range ks {
			ks[i] = mix.Uint64()
		}
		sp.jobs = append(sp.jobs, jobPlan{spec: server.JobSpec{Keys: ks}, want: checksumOf(ks, uint64Image)})
	}
	for i := range sp.jobs {
		body, err := json.Marshal(sp.jobs[i].spec)
		if err != nil {
			return sp, err
		}
		sp.jobs[i].body = body
	}
	return sp, nil
}

// plans prepares n sessions for every client.
func (s *serveSpec) plans(seed uint64, n int) ([][]sessionPlan, error) {
	out := make([][]sessionPlan, s.clients)
	for c := range out {
		out[c] = make([]sessionPlan, n)
		for k := range out[c] {
			var err error
			if out[c][k], err = s.plan(seed, c, k); err != nil {
				return nil, fmt.Errorf("serve-session: plan: %w", err)
			}
		}
	}
	return out, nil
}

// serveRig is one server instance: engine, loopback listener, HTTP server.
type serveRig struct {
	eng     *server.Server
	srv     *http.Server
	served  chan error
	baseURL string
}

// newServeRig starts dhsortd's engine with its defaults; only the tenant
// quota is lifted so admission policy does not throttle the generator.
func newServeRig(scratch string, withHTTP bool) (*serveRig, error) {
	rig := &serveRig{eng: server.New(server.Config{
		P: serverP, QuotaRate: 1e9, QuotaBurst: 1e9, ScratchDir: scratch,
	})}
	if !withHTTP {
		return rig, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rig.eng.Close()
		return nil, fmt.Errorf("serve-session: listen: %w", err)
	}
	rig.baseURL = "http://" + ln.Addr().String()
	rig.srv = &http.Server{Handler: api.Handler(rig.eng)}
	rig.served = make(chan error, 1)
	go func() { rig.served <- rig.srv.Serve(ln) }()
	return rig, nil
}

// close stops the HTTP server (which closes the listener and every
// connection), waits for its accept loop, then closes the engine.
func (r *serveRig) close() {
	if r.srv != nil {
		r.srv.Close()
		<-r.served
	}
	r.eng.Close()
}

// jobTrace is what the client learned about one job, for the per-layer
// metrics of the traced run.
type jobTrace struct {
	solo        bool
	submit      time.Duration
	polls       int
	status      []time.Duration
	result      time.Duration
	resultBytes int64
	queueWait   time.Duration // started - submitted, from JobStatus
	run         time.Duration // finished - started, from JobStatus
	notifyLag   time.Duration // client saw "done" - finished
}

// sessionTrace collects one session's job traces; nil means tracing is off.
type sessionTrace struct {
	tr   *tracer
	lane *lane
	op   int
	jobs []jobTrace
}

// span records one client-side layer call when tracing is on.
func (st *sessionTrace) span(name string, start time.Time) {
	if st == nil {
		return
	}
	s := start.Sub(st.tr.epoch)
	st.lane.add(name, s, st.tr.now(), st.op, st.op)
}

// transport is how a client reaches the service: over HTTP, or straight
// into the engine (the same session with no HTTP, for api.session_overhead_ms).
type transport interface {
	submit(j *jobPlan) (server.JobStatus, error)
	status(id string) (server.JobStatus, error)
	// result streams the job's keys into verifySorted-style checks and
	// returns the byte volume of the body.
	result(id string, want checksum) (int64, error)
	close()
}

type httpTransport struct {
	c    *http.Client
	base string
	buf  []byte
}

// newHTTPTransport returns a client holding at most one keep-alive
// connection to the service.
func newHTTPTransport(base string) *httpTransport {
	return &httpTransport{
		c:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		base: base,
		buf:  make([]byte, 64<<10),
	}
}

func (h *httpTransport) close() { h.c.CloseIdleConnections() }

func (h *httpTransport) do(req *http.Request, wantCode int, into any) error {
	resp, err := h.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return fmt.Errorf("%s %s: decode: %w", req.Method, req.URL.Path, err)
	}
	// Drain so the keep-alive connection is reusable.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (h *httpTransport) submit(j *jobPlan) (server.JobStatus, error) {
	req, err := http.NewRequest(http.MethodPost, h.base+"/v1/jobs", bytes.NewReader(j.body))
	if err != nil {
		return server.JobStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", "bench")
	var st server.JobStatus
	return st, h.do(req, http.StatusAccepted, &st)
}

func (h *httpTransport) status(id string) (server.JobStatus, error) {
	req, err := http.NewRequest(http.MethodGet, h.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return server.JobStatus{}, err
	}
	var st server.JobStatus
	return st, h.do(req, http.StatusOK, &st)
}

func (h *httpTransport) result(id string, want checksum) (int64, error) {
	resp, err := h.c.Get(h.base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("GET result %s: HTTP %d: %s", id, resp.StatusCode, bytes.TrimSpace(body))
	}
	return verifyKeyStream(resp.Body, h.buf, want)
}

// verifyKeyStream reads a "one decimal key per line" body to its end and
// checks it is ascending and matches the digest.  It returns the bytes read.
func verifyKeyStream(r io.Reader, buf []byte, want checksum) (int64, error) {
	var (
		got     checksum
		total   int64
		cur     uint64
		inNum   bool
		prev    uint64
		badAt   = -1
		readErr error
	)
	for readErr == nil {
		var n int
		n, readErr = r.Read(buf)
		total += int64(n)
		for _, b := range buf[:n] {
			switch {
			case b >= '0' && b <= '9':
				cur = cur*10 + uint64(b-'0')
				inNum = true
			case b == '\n' && inNum:
				if got.N > 0 && cur < prev && badAt < 0 {
					badAt = got.N
				}
				got.add(cur)
				prev, cur, inNum = cur, 0, false
			default:
				return total, fmt.Errorf("result stream: unexpected byte %q", b)
			}
		}
	}
	if !errors.Is(readErr, io.EOF) {
		return total, fmt.Errorf("result stream: %w", readErr)
	}
	if inNum {
		return total, fmt.Errorf("result stream: truncated last line")
	}
	if badAt >= 0 {
		return total, fmt.Errorf("result stream: not sorted at line %d", badAt)
	}
	return total, matchChecksum(got, want)
}

// engineTransport is the same session through Server.Submit/Status/Result.
type engineTransport struct {
	eng *server.Server
}

func (e engineTransport) submit(j *jobPlan) (server.JobStatus, error) {
	return e.eng.Submit("bench", j.spec)
}

func (e engineTransport) status(id string) (server.JobStatus, error) {
	st, ok := e.eng.Status(id)
	if !ok {
		return st, fmt.Errorf("status %s: no such job", id)
	}
	return st, nil
}

func (e engineTransport) result(id string, want checksum) (int64, error) {
	ks, _, err := e.eng.Result(id)
	if err != nil {
		return 0, err
	}
	return int64(len(ks)) * 8, verifySorted(ks, uint64Image, want)
}

func (e engineTransport) close() {}

// session runs one op against t: submit every job back to back, then for
// each job poll its status until done and stream and check its result.  The
// returned time runs from the first POST to the last result byte verified.
func (s *serveSpec) session(t transport, plan *sessionPlan, st *sessionTrace) (time.Duration, error) {
	t0 := time.Now()
	ids := make([]string, len(plan.jobs))
	var jts []jobTrace
	if st != nil {
		jts = make([]jobTrace, len(plan.jobs))
	}
	for i := range plan.jobs {
		c0 := time.Now()
		js, err := t.submit(&plan.jobs[i])
		if err != nil {
			return 0, fmt.Errorf("submit job %d: %w", i, err)
		}
		st.span("api.submit", c0)
		if st != nil {
			jts[i].solo = plan.jobs[i].solo
			jts[i].submit = time.Since(c0)
		}
		ids[i] = js.ID
	}
	for i, id := range ids {
		for {
			c0 := time.Now()
			js, err := t.status(id)
			if err != nil {
				return 0, fmt.Errorf("status %s: %w", id, err)
			}
			seen := time.Now()
			st.span("api.status", c0)
			if st != nil {
				jts[i].polls++
				jts[i].status = append(jts[i].status, seen.Sub(c0))
			}
			if js.State == server.StateFailed {
				return 0, fmt.Errorf("job %s failed: %s", id, js.Error)
			}
			if js.State == server.StateDone {
				if st != nil {
					jts[i].queueWait = time.Duration(js.StartedAt - js.SubmittedAt)
					jts[i].run = time.Duration(js.FinishedAt - js.StartedAt)
					jts[i].notifyLag = time.Duration(seen.UnixNano() - js.FinishedAt)
				}
				break
			}
			time.Sleep(s.pollEvery)
		}
		c0 := time.Now()
		n, err := t.result(id, plan.jobs[i].want)
		if err != nil {
			return 0, fmt.Errorf("result %s: %w", id, err)
		}
		st.span("api.result", c0)
		if st != nil {
			jts[i].result = time.Since(c0)
			jts[i].resultBytes = n
		}
	}
	d := time.Since(t0)
	if st != nil {
		st.jobs = append(st.jobs, jts...)
		st.lane.add("serve-session.op", t0.Sub(st.tr.epoch), t0.Sub(st.tr.epoch)+d, st.op, -1)
	}
	return d, nil
}

// sessionsResult is the outcome of one timed window of concurrent clients.
type sessionsResult struct {
	window    time.Duration
	ops       []time.Duration
	attempted int
	failed    int
	jobs      []jobTrace
}

// runSessions drives every client through its plans concurrently (closed
// loop: a client's next session starts when its previous one completes) until
// the plans or the time limit run out.  mk builds client c's transport; tr
// turns tracing on.
func (s *serveSpec) runSessions(rc *runCtx, mk func(c int) transport, plans [][]sessionPlan, limit time.Duration, tr *tracer) sessionsResult {
	type clientOut struct {
		ops       []time.Duration
		attempted int
		failed    int
		jobs      []jobTrace
	}
	outs := make([]clientOut, s.clients)
	lanes := make([]*lane, s.clients)
	if tr != nil {
		for c := range lanes {
			lanes[c] = tr.newLane(fmt.Sprintf("client %d", c))
		}
	}
	var wg sync.WaitGroup
	w0 := time.Now()
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := mk(c)
			defer t.close()
			o := &outs[c]
			for k := range plans[c] {
				if time.Since(w0) >= limit {
					break
				}
				var st *sessionTrace
				if tr != nil {
					st = &sessionTrace{tr: tr, lane: lanes[c], op: tr.newOp()}
				}
				o.attempted++
				d, err := s.session(t, &plans[c][k], st)
				if err != nil {
					o.failed++
					rc.logf("serve-session: client %d session %d FAILED: %v", c, k, err)
					continue
				}
				o.ops = append(o.ops, d)
				if st != nil {
					o.jobs = append(o.jobs, st.jobs...)
				}
			}
		}(c)
	}
	wg.Wait()
	res := sessionsResult{window: time.Since(w0)}
	for _, o := range outs {
		res.ops = append(res.ops, o.ops...)
		res.attempted += o.attempted
		res.failed += o.failed
		res.jobs = append(res.jobs, o.jobs...)
	}
	return res
}

// httpClients builds one HTTP transport per client against rig.
func httpClients(rig *serveRig) func(int) transport {
	return func(int) transport { return newHTTPTransport(rig.baseURL) }
}

// noLimit lets a session window run to the end of its plans.
const noLimit = time.Duration(1<<63 - 1)

// round runs one untraced round: a fresh server, warm-up sessions, then
// roundSessions timed sessions per client (or as many as fit in remaining).
func (s *serveSpec) round(rc *runCtx, remaining time.Duration) (roundResult, error) {
	var rr roundResult
	t0 := time.Now()
	plans, err := s.plans(rc.seed, s.warmSessions+s.roundSessions)
	if err != nil {
		return rr, err
	}
	rig, err := newServeRig(rc.scratch, true)
	if err != nil {
		return rr, err
	}
	defer rig.close()
	warm, timed := splitPlans(plans, s.warmSessions)
	if w := s.runSessions(rc, httpClients(rig), warm, noLimit, nil); w.failed > 0 {
		return rr, fmt.Errorf("serve-session: %d of %d warm-up sessions failed", w.failed, w.attempted)
	}
	rr.setup = time.Since(t0)

	res := s.runSessions(rc, httpClients(rig), timed, remaining, nil)
	rr.window, rr.busy = res.window, res.window
	rr.ops = res.ops
	rr.keys = int64(len(res.ops)) * s.sessionKeys()
	rr.attempted, rr.failed = res.attempted, res.failed
	return rr, nil
}

// splitPlans cuts every client's plan list into its first n sessions and
// the rest.
func splitPlans(plans [][]sessionPlan, n int) (head, tail [][]sessionPlan) {
	head = make([][]sessionPlan, len(plans))
	tail = make([][]sessionPlan, len(plans))
	for c := range plans {
		head[c], tail[c] = plans[c][:n], plans[c][n:]
	}
	return head, tail
}
