package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dhsort/internal/server"
)

// client is a minimal test-side wrapper over the wire protocol.
type client struct {
	t    *testing.T
	base string
	hc   *http.Client
}

func newClient(t *testing.T, base string) *client {
	return &client{t: t, base: base, hc: &http.Client{Timeout: 30 * time.Second}}
}

// submitReply is one submission's fully-read response.
type submitReply struct {
	code       int
	retryAfter string
	st         server.JobStatus // valid on 202
	rej        server.Reject    // valid on errors with a JSON body
}

func (c *client) submit(tenant string, spec server.JobSpec) submitReply {
	c.t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		c.t.Fatal(err)
	}
	req, err := http.NewRequest("POST", c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out submitReply
	out.code = resp.StatusCode
	out.retryAfter = resp.Header.Get("Retry-After")
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&out.st); err != nil {
			c.t.Fatalf("decode submit response: %v", err)
		}
	} else {
		_ = json.NewDecoder(resp.Body).Decode(&out.rej)
	}
	return out
}

// waitRunning polls until the job leaves the queue (any state but
// "queued"), so tests can deterministically wedge a lone worker.
func (c *client) waitRunning(id string, timeout time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, code := c.status(id)
		if code != http.StatusOK {
			c.t.Fatalf("status %s: HTTP %d", id, code)
		}
		if st.State != server.StateQueued {
			return
		}
		time.Sleep(time.Millisecond)
	}
	c.t.Fatalf("job %s still queued after %v", id, timeout)
}

func (c *client) status(id string) (server.JobStatus, int) {
	c.t.Helper()
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			c.t.Fatalf("decode status: %v", err)
		}
	}
	return st, resp.StatusCode
}

func (c *client) waitDone(id string, timeout time.Duration) server.JobStatus {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, code := c.status(id)
		if code != http.StatusOK {
			c.t.Fatalf("status %s: HTTP %d", id, code)
		}
		if st.State == server.StateDone || st.State == server.StateFailed {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatalf("job %s did not finish within %v", id, timeout)
	return server.JobStatus{}
}

func (c *client) result(id string) ([]uint64, *http.Response) {
	c.t.Helper()
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/result")
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	var keys []uint64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		k, err := strconv.ParseUint(sc.Text(), 10, 64)
		if err != nil {
			c.t.Fatalf("result line %q: %v", sc.Text(), err)
		}
		keys = append(keys, k)
	}
	if err := sc.Err(); err != nil {
		c.t.Fatal(err)
	}
	return keys, resp
}

func (c *client) metrics() server.Metrics {
	c.t.Helper()
	resp, err := c.hc.Get(c.base + "/v1/metrics")
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("metrics: HTTP %d", resp.StatusCode)
	}
	var m server.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		c.t.Fatal(err)
	}
	return m
}

func sortedCopy(ks []uint64) []uint64 {
	out := append([]uint64(nil), ks...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServiceMultiTenantEndToEnd is the acceptance test of the service: 8
// concurrent tenants push mixed-size jobs through one pooled-world server
// over real HTTP; every result must come back sorted and multiset-identical
// to its input, the over-limit ninth tenant must be quota-rejected, and the
// pool counters on /v1/metrics must show warm jobs skipping world
// construction.
func TestServiceMultiTenantEndToEnd(t *testing.T) {
	eng := server.New(server.Config{
		P:            4,
		Workers:      2,
		QueueDepth:   128,
		QuotaRate:    0.0001, // effectively no refill within the test
		QuotaBurst:   4,
		BatchMaxKeys: 256, // small jobs batch, larger ones run solo
		BatchWait:    time.Millisecond,
	})
	defer eng.Close()
	ts := httptest.NewServer(Handler(eng))
	defer ts.Close()

	const tenants = 8
	sizes := []int{80, 120, 2000} // two batchable, one solo per tenant

	type submitted struct {
		id    string
		input []uint64
	}
	var (
		mu   sync.Mutex
		jobs []submitted
		wg   sync.WaitGroup
	)
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			c := newClient(t, ts.URL)
			rng := rand.New(rand.NewSource(int64(1000 + ti)))
			for _, n := range sizes {
				keys := make([]uint64, n)
				for i := range keys {
					keys[i] = rng.Uint64()
				}
				rep := c.submit(fmt.Sprintf("tenant-%d", ti), server.JobSpec{Keys: keys})
				if rep.code != http.StatusAccepted {
					t.Errorf("tenant %d: submit = HTTP %d", ti, rep.code)
					return
				}
				mu.Lock()
				jobs = append(jobs, submitted{id: rep.st.ID, input: keys})
				mu.Unlock()
			}
		}(ti)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if len(jobs) != tenants*len(sizes) {
		t.Fatalf("submitted %d jobs, want %d", len(jobs), tenants*len(sizes))
	}

	// The ninth tenant blows through its burst: 4 accepted, then 429s with
	// a Retry-After hint.
	c := newClient(t, ts.URL)
	var accepted, rejected int
	for i := 0; i < 6; i++ {
		rep := c.submit("greedy", server.JobSpec{Keys: []uint64{9, 4, 7, 1}})
		switch rep.code {
		case http.StatusAccepted:
			accepted++
			jobs = append(jobs, submitted{id: rep.st.ID, input: []uint64{9, 4, 7, 1}})
		case http.StatusTooManyRequests:
			rejected++
			if rep.retryAfter == "" {
				t.Error("quota 429 without Retry-After header")
			}
			if rep.rej.Reason != "quota_exceeded" {
				t.Errorf("quota rejection body = %+v", rep.rej)
			}
		default:
			t.Errorf("greedy submit %d = HTTP %d", i, rep.code)
		}
	}
	if accepted != 4 || rejected != 2 {
		t.Errorf("greedy tenant: %d accepted, %d rejected, want 4/2", accepted, rejected)
	}

	// Every accepted job completes, verifies, and returns its own keys in
	// sorted order — tenants never see each other's data, batched or not.
	poolHits := 0
	for _, job := range jobs {
		st := c.waitDone(job.id, 60*time.Second)
		if st.State != server.StateDone {
			t.Fatalf("job %s: state %s (%s)", job.id, st.State, st.Error)
		}
		if !st.Verified {
			t.Errorf("job %s not verified", job.id)
		}
		if st.PoolHit {
			poolHits++
		}
		keys, resp := c.result(job.id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s: HTTP %d", job.id, resp.StatusCode)
		}
		if !equalU64(keys, sortedCopy(job.input)) {
			t.Errorf("job %s: result is not the sorted input (%d vs %d keys)",
				job.id, len(keys), len(job.input))
		}
	}
	if poolHits == 0 {
		t.Error("no job reported a pool hit: warm worlds never reused")
	}

	m := c.metrics()
	want := int64(len(jobs))
	if m.JobsSubmitted != want || m.JobsDone != want || m.JobsFailed != 0 {
		t.Errorf("metrics: submitted=%d done=%d failed=%d, want %d/%d/0",
			m.JobsSubmitted, m.JobsDone, m.JobsFailed, want, want)
	}
	if m.RejectedQuota != 2 {
		t.Errorf("metrics: rejected_quota=%d, want 2", m.RejectedQuota)
	}
	if m.Pool.Hits == 0 {
		t.Error("metrics: pool reports zero hits — every job built a fresh world")
	}
	if m.Pool.Built == 0 || m.Pool.Built >= want {
		t.Errorf("metrics: pool built %d worlds for %d jobs", m.Pool.Built, want)
	}
	if len(m.Tenants) != tenants+1 {
		t.Errorf("metrics: %d tenants recorded, want %d", len(m.Tenants), tenants+1)
	}
	if len(m.Jobs) == 0 {
		t.Fatal("metrics: no per-job documents retained")
	}
	for _, e := range m.Jobs {
		if e.Doc.Schema != "dhsort-bench/v1" {
			t.Fatalf("ring document schema = %q", e.Doc.Schema)
		}
		if e.Doc.Config.Suite != "serve" {
			t.Fatalf("ring document suite = %q", e.Doc.Config.Suite)
		}
	}
}

// TestQueueFullBackpressure saturates a 1-deep queue behind a single busy
// worker and checks the 429 queue_full path, Retry-After included.
func TestQueueFullBackpressure(t *testing.T) {
	eng := server.New(server.Config{
		P:          4,
		Workers:    1,
		QueueDepth: 1,
		QuotaRate:  100000,
		QuotaBurst: 100000,
	})
	defer eng.Close()
	ts := httptest.NewServer(Handler(eng))
	defer ts.Close()
	c := newClient(t, ts.URL)

	// The wedge job is pure CPU; on a small GOMAXPROCS (a 1-core CI box) it
	// starves the probe HTTP round trips below until it has already
	// finished, and the queue then drains as fast as serial submits can
	// fill it — the 429 would never be observable.  Give the scheduler
	// room for the duration.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))

	// Wedge the lone worker on a fat job, confirmed running before probing.
	wedge := c.submit("burst", server.JobSpec{N: 1 << 21, Settings: server.Settings{Threads: 1}, NoBatch: true})
	if wedge.code != http.StatusAccepted {
		t.Fatalf("wedge submit = HTTP %d", wedge.code)
	}
	c.waitRunning(wedge.st.ID, 30*time.Second)

	// Probe with a concurrent burst: the requests all reach admission while
	// the worker is still wedged, so the 1-deep queue must turn at least
	// one away.  (Serial probes would race each round trip against the
	// wedge's remaining runtime.)
	replies := make([]submitReply, 20)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(server.JobSpec{Keys: []uint64{2, 1}, NoBatch: true})
			req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
			if err != nil {
				replies[i].code = -1
				return
			}
			req.Header.Set("X-Tenant", "burst")
			resp, err := c.hc.Do(req)
			if err != nil {
				replies[i].code = -1
				return
			}
			defer resp.Body.Close()
			replies[i].code = resp.StatusCode
			replies[i].retryAfter = resp.Header.Get("Retry-After")
			if resp.StatusCode == http.StatusAccepted {
				_ = json.NewDecoder(resp.Body).Decode(&replies[i].st)
			} else {
				_ = json.NewDecoder(resp.Body).Decode(&replies[i].rej)
			}
		}(i)
	}
	wg.Wait()

	ids := []string{wedge.st.ID}
	sawFull := false
	for i, rep := range replies {
		switch rep.code {
		case http.StatusAccepted:
			ids = append(ids, rep.st.ID)
		case http.StatusTooManyRequests:
			sawFull = true
			if rep.retryAfter == "" {
				t.Error("queue_full 429 without Retry-After header")
			}
			if rep.rej.Reason != "queue_full" {
				t.Errorf("queue_full body = %+v", rep.rej)
			}
		default:
			t.Fatalf("submit %d = HTTP %d", i, rep.code)
		}
	}
	if !sawFull {
		t.Fatal("never saw a queue_full 429 despite a 1-deep queue behind a wedged worker")
	}
	for _, id := range ids {
		if st := c.waitDone(id, 60*time.Second); st.State != server.StateDone {
			t.Errorf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	if m := c.metrics(); m.RejectedQueueFull == 0 {
		t.Error("metrics: rejected_queue_full is zero")
	}
}

// TestResultNotReadyAndErrors covers the error surface: result before
// completion, unknown job, malformed and unknown-field bodies.
func TestResultNotReadyAndErrors(t *testing.T) {
	eng := server.New(server.Config{P: 4, Workers: 1, QuotaRate: 1000, QuotaBurst: 1000})
	defer eng.Close()
	ts := httptest.NewServer(Handler(eng))
	defer ts.Close()
	c := newClient(t, ts.URL)

	// A fat job wedges the lone worker — confirmed running before the next
	// submit — so the queued job cannot be done when its result is asked
	// for.  GOMAXPROCS headroom so the CPU-bound wedge cannot starve those
	// HTTP round trips past its own runtime on a 1-core box (see
	// TestQueueFullBackpressure).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	wedge := c.submit("t", server.JobSpec{N: 1 << 21, Settings: server.Settings{Threads: 1}, NoBatch: true})
	if wedge.code != http.StatusAccepted {
		t.Fatalf("wedge submit = HTTP %d", wedge.code)
	}
	c.waitRunning(wedge.st.ID, 30*time.Second)
	queued := c.submit("t", server.JobSpec{Keys: []uint64{3, 1, 2}, NoBatch: true})
	if queued.code != http.StatusAccepted {
		t.Fatalf("second submit = HTTP %d", queued.code)
	}
	if _, rr := c.result(queued.st.ID); rr.StatusCode != http.StatusConflict {
		t.Errorf("result of queued job = HTTP %d, want 409", rr.StatusCode)
	}

	if _, code := c.status("j-999999"); code != http.StatusNotFound {
		t.Errorf("status of unknown job = HTTP %d, want 404", code)
	}
	if _, rr := c.result("j-999999"); rr.StatusCode != http.StatusNotFound {
		t.Errorf("result of unknown job = HTTP %d, want 404", rr.StatusCode)
	}

	for _, body := range []string{"{not json", `{"keys":[1],"bogus_field":true}`, `{}`} {
		rr, err := c.hc.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		rr.Body.Close()
		if rr.StatusCode != http.StatusBadRequest {
			t.Errorf("submit body %q = HTTP %d, want 400", body, rr.StatusCode)
		}
	}

	c.waitDone(wedge.st.ID, 120*time.Second)
	c.waitDone(queued.st.ID, 120*time.Second)
}

// TestNoSplitterCacheOnTheWire pins the wire surface without a splitter
// cache: a submit naming no_warm is an unknown field, and neither a repeated
// job's status nor /v1/metrics carries a warm-start key.
func TestNoSplitterCacheOnTheWire(t *testing.T) {
	eng := server.New(server.Config{P: 4, Workers: 1, QuotaRate: 1000, QuotaBurst: 1000})
	defer eng.Close()
	ts := httptest.NewServer(Handler(eng))
	defer ts.Close()
	c := newClient(t, ts.URL)

	rr, err := c.hc.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"n":8192,"no_warm":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var rej server.Reject
	if err := json.NewDecoder(rr.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusBadRequest || rej.Reason != "bad_request" || !strings.Contains(rej.Detail, "no_warm") {
		t.Errorf("submit naming no_warm = HTTP %d %+v, want 400 bad_request on the unknown field", rr.StatusCode, rej)
	}

	// keys GETs path and decodes its JSON object's top-level keys.
	keys := func(path string) map[string]json.RawMessage {
		t.Helper()
		resp, err := c.hc.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	// The same solo generated job twice: the shape a splitter cache served.
	spec := server.JobSpec{N: 8192, Dist: "uniform", Seed: 3}
	for range 2 {
		rep := c.submit("t", spec)
		if rep.code != http.StatusAccepted {
			t.Fatalf("submit = HTTP %d", rep.code)
		}
		if st := c.waitDone(rep.st.ID, 60*time.Second); st.State != server.StateDone || !st.Verified {
			t.Fatalf("job %s: %+v", rep.st.ID, st)
		}
		if _, ok := keys("/v1/jobs/" + rep.st.ID)["warm_start"]; ok {
			t.Errorf("job %s status carries warm_start", rep.st.ID)
		}
	}
	if _, ok := keys("/v1/metrics")["warm"]; ok {
		t.Error("/v1/metrics carries a warm block")
	}
}

// TestHealthz pins the liveness endpoint.
func TestHealthz(t *testing.T) {
	eng := server.New(server.Config{P: 2})
	defer eng.Close()
	ts := httptest.NewServer(Handler(eng))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, body)
	}
}

// repeatReader yields s over and over: a request body of any size without
// holding it in memory.
type repeatReader struct {
	s string
	i int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	for n := range p {
		p[n] = r.s[r.i%len(r.s)]
		r.i++
	}
	return len(p), nil
}

// TestSubmitOversizedBody413 sends a well-formed but endless keys array one
// byte over maxBodyBytes: the answer is 413 too_large, like a job over
// MaxN, not 400.
func TestSubmitOversizedBody413(t *testing.T) {
	eng := server.New(server.Config{P: 2, Workers: 1})
	defer eng.Close()
	ts := httptest.NewServer(Handler(eng))
	defer ts.Close()

	const head = `{"keys":[`
	body := io.MultiReader(strings.NewReader(head),
		io.LimitReader(&repeatReader{s: "0,"}, maxBodyBytes+1-int64(len(head))))
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = maxBodyBytes + 1
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rej server.Reject
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatalf("decode rejection: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || rej.Reason != "too_large" {
		t.Fatalf("oversized body = HTTP %d %+v, want 413 too_large", resp.StatusCode, rej)
	}
}

// TestSubmitDeclaredSizeBoundsBuffer: a request that declares a 64 MiB
// body and sends a short one is not answered with a 64 MiB buffer — the
// declared size only presizes the read up to a cap, so a client that
// declares much and sends little holds little.
func TestSubmitDeclaredSizeBoundsBuffer(t *testing.T) {
	eng := server.New(server.Config{P: 2, Workers: 1})
	defer eng.Close()
	h := Handler(eng)

	body := `{"keys":[3,1,2],"nope":1}` // rejected before the engine: no job runs
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
	req.ContentLength = maxBodyBytes
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("HTTP %d %s, want 400", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("a %d-byte body declared at %d bytes allocates %d bytes", len(body), maxBodyBytes, got)
	}
}

// TestResultByteStream pins the /result wire format byte for byte: every
// key in decimal with a trailing newline, the extreme keys and duplicates
// included, for a job inside one block and a job that spans several.  A
// client that hangs up after the first block leaves the server serving the
// next request.
func TestResultByteStream(t *testing.T) {
	eng := server.New(server.Config{P: 4, Workers: 2, QuotaRate: 1000, QuotaBurst: 1000})
	defer eng.Close()
	ts := httptest.NewServer(Handler(eng))
	defer ts.Close()
	c := newClient(t, ts.URL)

	rng := rand.New(rand.NewSource(11))
	mkKeys := func(n int) []uint64 {
		ks := []uint64{0, math.MaxUint64, 7, 7, 0, math.MaxUint64}
		for len(ks) < n {
			ks = append(ks, rng.Uint64(), uint64(rng.Intn(100)))
		}
		return ks[:n]
	}
	wire := func(ks []uint64) string {
		var b strings.Builder
		for _, k := range sortedCopy(ks) {
			b.WriteString(strconv.FormatUint(k, 10))
			b.WriteByte('\n')
		}
		return b.String()
	}
	get := func(id string) (*http.Response, string) {
		t.Helper()
		resp, err := c.hc.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	small, large := mkKeys(300), mkKeys(40000)
	if len(wire(large)) < 4*resultBlock || len(wire(small)) >= resultBlock {
		t.Fatalf("job sizes miss the block geometry: %d and %d bytes", len(wire(small)), len(wire(large)))
	}
	var ids []string
	for _, ks := range [][]uint64{small, large} {
		rep := c.submit("t", server.JobSpec{Keys: ks})
		if rep.code != http.StatusAccepted {
			t.Fatalf("submit = HTTP %d", rep.code)
		}
		if st := c.waitDone(rep.st.ID, 60*time.Second); st.State != server.StateDone {
			t.Fatalf("job %s: %s (%s)", rep.st.ID, st.State, st.Error)
		}
		ids = append(ids, rep.st.ID)
	}
	for i, ks := range [][]uint64{small, large} {
		resp, body := get(ids[i])
		h := resp.Header
		if resp.StatusCode != http.StatusOK || h.Get("Content-Type") != "text/plain; charset=utf-8" ||
			h.Get("X-Job-Id") != ids[i] || h.Get("X-Job-N") != strconv.Itoa(len(ks)) || h.Get("X-Job-Verified") != "true" {
			t.Errorf("job %s: HTTP %d, headers %v", ids[i], resp.StatusCode, h)
		}
		if want := wire(ks); body != want {
			t.Errorf("job %s: body of %d bytes differs from the %d expected", ids[i], len(body), len(want))
		}
	}

	// Hang up after the first block of the large result, then ask again.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /v1/jobs/%s/result HTTP/1.1\r\nHost: x\r\n\r\n", ids[1])
	if _, err := io.ReadFull(conn, make([]byte, resultBlock)); err != nil {
		t.Fatalf("first block: %v", err)
	}
	conn.Close()
	if resp, body := get(ids[1]); resp.StatusCode != http.StatusOK || body != wire(large) {
		t.Errorf("after a hang-up: HTTP %d, %d bytes", resp.StatusCode, len(body))
	}
	if _, code := c.status(ids[0]); code != http.StatusOK {
		t.Errorf("status after a hang-up = HTTP %d", code)
	}
}

// TestSubmitSlowBodyShed: a client that declares a submit body, sends one
// byte of it and stalls is answered 408 body_timeout and its connection
// closed once the body read deadline passes — it does not keep a handler
// goroutine — while a submit on a keep-alive connection that delivers its
// body in time is served, and the connection serves the next request.
func TestSubmitSlowBodyShed(t *testing.T) {
	defer func(d time.Duration) { bodyReadTimeout = d }(bodyReadTimeout)
	bodyReadTimeout = 200 * time.Millisecond
	eng := server.New(server.Config{P: 2, Workers: 1, QuotaRate: 1000, QuotaBurst: 1000})
	defer eng.Close()
	ts := httptest.NewServer(Handler(eng))
	defer ts.Close()
	base := runtime.NumGoroutine()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{")
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := io.ReadAll(conn) // the answer, then EOF: the server closed the connection
	took := time.Since(start)
	if err != nil {
		t.Fatalf("after %v: %v (read %q)", took, err, reply)
	}
	if !strings.HasPrefix(string(reply), "HTTP/1.1 408") || !strings.Contains(string(reply), "body_timeout") {
		t.Errorf("stalled body answered %q", reply)
	}
	if took < bodyReadTimeout || took > bodyReadTimeout+2*time.Second {
		t.Errorf("the stalled connection ended after %v, the deadline is %v", took, bodyReadTimeout)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the stalled submit", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A prompt client is untouched by the deadline: two submits on one
	// keep-alive connection, the second after the first deadline expired.
	client := ts.Client()
	for i := range 2 {
		resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"keys":[3,1,2]}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d on a kept-alive connection: HTTP %d", i, resp.StatusCode)
		}
		time.Sleep(2 * bodyReadTimeout)
	}
}
