package server

import (
	"fmt"
	"maps"
	"os"
	"strings"
	"sync"
	"time"

	"dhsort"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

// Reject is the typed admission/lookup error of the engine; the API layer
// maps it onto an HTTP status and a JSON error body.
type Reject struct {
	HTTPStatus int    `json:"-"`
	Reason     string `json:"reason"`
	Detail     string `json:"detail"`
	// RetryAfter is the suggested client backoff in seconds (0 = none).
	RetryAfter int `json:"retry_after,omitempty"`
}

func (r *Reject) Error() string { return r.Reason + ": " + r.Detail }

func badRequest(msg string) *Reject {
	return &Reject{HTTPStatus: 400, Reason: "bad_request", Detail: msg}
}

// Config tunes a Server.  Zero values pick the defaults in parentheses.
type Config struct {
	P            int           // default world size for jobs that don't ask (8)
	MaxP         int           // largest accepted world size (64)
	Workers      int           // concurrent job executors (2)
	QueueDepth   int           // bounded admission queue (64)
	PoolIdle     int           // warm worlds kept idle per shape (2)
	QuotaRate    float64       // per-tenant refill, jobs/second (5)
	QuotaBurst   float64       // per-tenant burst (10)
	MaxN         int           // largest accepted job, keys (1<<22)
	BatchMaxKeys int           // batch-eligibility size threshold (4096)
	BatchMax     int           // most jobs per shared world run (8)
	BatchWait    time.Duration // linger for stragglers before running a partial batch (2ms)
	MetricsRing  int           // per-job metrics documents retained (64)
	ScratchDir   string        // root for spilled jobs' per-job run stores (os.TempDir())
	// Autoscale enables the load-driven world-size autoscaler (off).
	Autoscale AutoscaleConfig
}

func (c Config) withDefaults() Config {
	if c.P <= 0 {
		c.P = 8
	}
	if c.MaxP <= 0 {
		c.MaxP = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.PoolIdle <= 0 {
		c.PoolIdle = 2
	}
	if c.QuotaRate <= 0 {
		c.QuotaRate = 5
	}
	if c.QuotaBurst <= 0 {
		c.QuotaBurst = 10
	}
	if c.MaxN <= 0 {
		c.MaxN = 1 << 22
	}
	if c.BatchMaxKeys <= 0 {
		c.BatchMaxKeys = 4096
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 8
	}
	if c.BatchMax > 1024 {
		c.BatchMax = 1024 // batchItem.Job is 16-bit; keep far below it
	}
	if c.BatchWait <= 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	if c.MetricsRing <= 0 {
		c.MetricsRing = 64
	}
	c.Autoscale = c.Autoscale.withDefaults(c)
	return c
}

// Job lifecycle states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobStatus is the wire view of a job.
type JobStatus struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	State     string `json:"state"`
	N         int    `json:"n"`
	P         int    `json:"p"`
	Algorithm string `json:"algorithm,omitempty"`
	// Batched marks a job that shared a world run with others.
	Batched   bool `json:"batched,omitempty"`
	BatchSize int  `json:"batch_size,omitempty"`
	// PoolHit marks a job served by a warm pooled world (no world
	// construction on its critical path).
	PoolHit bool `json:"pool_hit,omitempty"`
	// Spilled marks a job that ran out-of-core; SpilledRuns counts the disk
	// runs its ranks sealed.
	Spilled     bool  `json:"spilled,omitempty"`
	SpilledRuns int64 `json:"spilled_runs,omitempty"`
	// Verified is the collective IsGloballySorted verdict plus an element
	// conservation check.
	Verified bool `json:"verified,omitempty"`
	// Survivors is the effective world size the result lives on (smaller
	// than P only after a shrink recovery).
	Survivors   int    `json:"survivors,omitempty"`
	Error       string `json:"error,omitempty"`
	SubmittedAt int64  `json:"submitted_unix_ns,omitempty"`
	StartedAt   int64  `json:"started_unix_ns,omitempty"`
	FinishedAt  int64  `json:"finished_unix_ns,omitempty"`
	MakespanNS  int64  `json:"makespan_ns,omitempty"`
}

// job is the engine-side record: the submitted spec, the sorted output once
// done, and the wire status the runner fills in place.  Guarded by Server.mu.
type job struct {
	spec   JobSpec
	output []uint64
	st     JobStatus
}

func newJob(id, tenant string, spec JobSpec) *job {
	return &job{spec: spec, st: JobStatus{ID: id, Tenant: tenant, State: StateQueued, N: spec.n(), P: spec.P,
		Spilled: spec.Spill, SubmittedAt: timeNow().UnixNano()}}
}

// RingEntry is one retained per-job metrics document.
type RingEntry struct {
	ID     string           `json:"id"`
	Tenant string           `json:"tenant"`
	Doc    metrics.Document `json:"doc"`
}

// Metrics is the server-wide counter snapshot served on /v1/metrics.
type Metrics struct {
	UptimeNS          int64            `json:"uptime_ns"`
	JobsSubmitted     int64            `json:"jobs_submitted"`
	JobsDone          int64            `json:"jobs_done"`
	JobsFailed        int64            `json:"jobs_failed"`
	RejectedQuota     int64            `json:"rejected_quota"`
	RejectedQueueFull int64            `json:"rejected_queue_full"`
	Batches           int64            `json:"batches"`
	BatchedJobs       int64            `json:"batched_jobs"`
	SpilledJobs       int64            `json:"spilled_jobs"`
	SpilledRuns       int64            `json:"spilled_runs"`
	SpillBytes        int64            `json:"spill_bytes"`
	RejectedDraining  int64            `json:"rejected_draining,omitempty"`
	Draining          bool             `json:"draining,omitempty"`
	QueueLen          int              `json:"queue_len"`
	QueueDepth        int              `json:"queue_depth"`
	Inflight          int              `json:"inflight"`
	Pool              PoolStats        `json:"pool"`
	Autoscale         AutoscaleStats   `json:"autoscale"`
	Tenants           map[string]int64 `json:"tenants"`
	Jobs              []RingEntry      `json:"jobs"`

	// Warm is always zero: the server keeps no splitter cache.  It stays
	// only for the wall-clock benchmark's server.warm_hit_ratio probe, which
	// reads 0, until a benchmark change drops that metric and this field.
	Warm struct {
		Hits, Misses int64
	} `json:"-"`
}

// Server is the sort service engine.  It owns the admission queue, the
// tenant quotas, the warm world pool, the worker goroutines and the job
// table; internal/api puts HTTP in front of it.
type Server struct {
	cfg    Config
	queue  *jobQueue
	pool   *worldPool
	quotas *quotaTable
	scale  *autoscaler // nil unless Config.Autoscale.Enabled
	wg     sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	lastImb float64 // latest completed job's time-imbalance factor
	seq     int
	jobs    map[string]*job
	started time.Time
	// stats holds the counters, the draining flag, the in-flight count, the
	// per-tenant totals and the metrics ring; MetricsSnapshot adds the rest.
	stats Metrics
}

// New starts a server with cfg.Workers executor goroutines.  Close releases
// them and the pooled worlds.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		queue:   newJobQueue(cfg.QueueDepth),
		pool:    newWorldPool(cfg.PoolIdle),
		quotas:  newQuotaTable(cfg.QuotaRate, cfg.QuotaBurst),
		jobs:    make(map[string]*job),
		started: timeNow(),
		stats:   Metrics{Tenants: make(map[string]int64)},
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if cfg.Autoscale.Enabled {
		s.scale = newAutoscaler(s, cfg.Autoscale)
		go s.scale.loop()
	}
	return s
}

// targetP is the world size given to jobs that don't request one: the
// autoscaler's moving target when enabled, the static default otherwise.
func (s *Server) targetP() int {
	if s.scale != nil {
		return s.scale.targetP()
	}
	return s.cfg.P
}

// Drain flips the server into draining: new submissions are rejected with
// 503 + Retry-After while queued and in-flight jobs keep running, so a
// SIGTERM'd instance can finish the work it admitted.
func (s *Server) Drain() {
	s.mu.Lock()
	s.stats.Draining = true
	s.mu.Unlock()
}

// Draining reports whether Drain was called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Draining
}

// Quiesce blocks until the queue is empty and no job is in flight, or the
// timeout passes; it reports whether the server fully drained.
func (s *Server) Quiesce(timeout time.Duration) bool {
	deadline := timeNow().Add(timeout)
	for {
		s.mu.Lock()
		idle := s.stats.Inflight == 0
		s.mu.Unlock()
		if idle && s.queue.len() == 0 {
			return true
		}
		if !timeNow().Before(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sample observes the engine for the autoscaler policy.
func (s *Server) sample() scaleSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return scaleSample{
		QueueLen:   s.queue.len(),
		Inflight:   s.stats.Inflight,
		Imbalance:  s.lastImb,
		PoolMisses: s.pool.stats().Misses,
	}
}

// Close drains the workers and shuts down every pooled world.  Queued jobs
// that never ran stay in state "queued".
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if s.scale != nil {
		s.scale.close() // stop reshaping before the pool shuts down
	}
	s.queue.close()
	s.wg.Wait()
	s.pool.closeAll()
}

// Submit admits one job for tenant: quota check, registration, queue push.
// The error, if any, is a *Reject.
func (s *Server) Submit(tenant string, spec JobSpec) (JobStatus, error) {
	tenant = strings.TrimSpace(tenant)
	if tenant == "" {
		tenant = "default"
	}
	if len(tenant) > 64 {
		return JobStatus{}, badRequest("tenant name longer than 64 bytes")
	}
	if err := s.normalize(&spec); err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	if s.stats.Draining {
		s.stats.RejectedDraining++
		s.mu.Unlock()
		return JobStatus{}, &Reject{HTTPStatus: 503, Reason: "draining",
			Detail:     "server is draining; resubmit elsewhere or after it restarts",
			RetryAfter: 5}
	}
	s.mu.Unlock()
	if ok, wait := s.quotas.allow(tenant); !ok {
		s.mu.Lock()
		s.stats.RejectedQuota++
		s.mu.Unlock()
		return JobStatus{}, &Reject{HTTPStatus: 429, Reason: "quota_exceeded",
			Detail:     fmt.Sprintf("tenant %q is over its job quota", tenant),
			RetryAfter: retryAfterSeconds(wait)}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobStatus{}, &Reject{HTTPStatus: 503, Reason: "shutting_down", Detail: "server is closing"}
	}
	s.seq++
	j := newJob(fmt.Sprintf("j-%06d", s.seq), tenant, spec)
	s.jobs[j.st.ID] = j
	s.stats.JobsSubmitted++
	s.stats.Tenants[tenant]++
	st := j.st
	s.mu.Unlock()

	if !s.queue.tryPush(j) {
		s.mu.Lock()
		delete(s.jobs, st.ID)
		s.stats.JobsSubmitted--
		s.stats.Tenants[tenant]--
		s.stats.RejectedQueueFull++
		s.mu.Unlock()
		return JobStatus{}, &Reject{HTTPStatus: 429, Reason: "queue_full",
			Detail:     fmt.Sprintf("admission queue of %d jobs is full", s.cfg.QueueDepth),
			RetryAfter: 1}
	}
	return st, nil
}

// Status returns the wire view of job id.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.st, true
}

// Result returns the sorted output of a completed job.  The error, if any,
// is a *Reject (not_found / not_ready / job_failed).
func (s *Server) Result(id string) ([]uint64, JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, JobStatus{}, &Reject{HTTPStatus: 404, Reason: "not_found",
			Detail: fmt.Sprintf("no job %q", id)}
	}
	st := j.st
	switch st.State {
	case StateDone:
		return j.output, st, nil
	case StateFailed:
		return nil, st, &Reject{HTTPStatus: 409, Reason: "job_failed", Detail: st.Error}
	default:
		return nil, st, &Reject{HTTPStatus: 409, Reason: "not_ready",
			Detail: fmt.Sprintf("job %s is %s", id, st.State), RetryAfter: 1}
	}
}

// MetricsSnapshot returns the server-wide counters, pool statistics, and
// the retained per-job metrics ring (oldest first).
func (s *Server) MetricsSnapshot() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.stats
	m.UptimeNS = int64(timeNow().Sub(s.started))
	m.QueueLen = s.queue.len()
	m.QueueDepth = s.cfg.QueueDepth
	m.Pool = s.pool.stats()
	m.Autoscale = s.autoscaleStats()
	m.Tenants = maps.Clone(s.stats.Tenants)
	m.Jobs = append([]RingEntry(nil), s.stats.Jobs...)
	return m
}

func (s *Server) autoscaleStats() AutoscaleStats {
	if s.scale == nil {
		return AutoscaleStats{TargetP: s.cfg.P}
	}
	return s.scale.statsLocked()
}

func retryAfterSeconds(wait time.Duration) int {
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// worker is one executor: claim a job, opportunistically drain compatible
// small jobs into a shared batch, run, repeat.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		batch := []*job{j}
		if s.cfg.BatchMax > 1 && s.batchEligible(j.spec) {
			// Jobs of one world shape and one Settings may share a world run.
			match := func(o *job) bool {
				return s.batchEligible(o.spec) && o.spec.world() == j.spec.world() && o.spec.Settings == j.spec.Settings
			}
			batch = append(batch, s.queue.popCompatible(match, s.cfg.BatchMax-len(batch))...)
			if len(batch) < s.cfg.BatchMax && s.cfg.BatchWait > 0 {
				// Brief linger: submissions racing the drain join this run
				// instead of paying for their own.
				time.Sleep(s.cfg.BatchWait)
				batch = append(batch, s.queue.popCompatible(match, s.cfg.BatchMax-len(batch))...)
			}
		}
		s.runBatch(batch)
	}
}

func (s *Server) markRunning(batch []*job) {
	now := timeNow().UnixNano()
	s.mu.Lock()
	for _, j := range batch {
		j.st.State, j.st.StartedAt = StateRunning, now
	}
	s.stats.Inflight += len(batch)
	s.mu.Unlock()
}

// finishLocked ends j in state: it stamps the finish time and releases the
// job's inline keys (its status keeps their count) and its in-flight slot.
func (s *Server) finishLocked(j *job, state string) {
	j.spec.Keys = nil
	j.st.State, j.st.FinishedAt = state, timeNow().UnixNano()
	s.stats.Inflight--
}

func (s *Server) failJob(j *job, poolHit bool, err error) {
	s.mu.Lock()
	s.finishLocked(j, StateFailed)
	j.st.Error, j.st.PoolHit = err.Error(), poolHit
	s.stats.JobsFailed++
	s.mu.Unlock()
}

// runBatch executes one claimed batch.  A lone job sorts its own keys.
// Several compatible small jobs run as ONE world run: every key is tagged
// with its job index and the union is sorted once by (Job, Key), amortizing
// the world's supersteps over the whole batch.
func (s *Server) runBatch(batch []*job) {
	s.markRunning(batch)
	if len(batch) == 1 {
		sp := batch[0].spec
		runJobs(s, batch, dhsort.Uint64Ops, func(rank int) ([]uint64, error) { return localInput(sp, rank) },
			func(out []uint64) [][]uint64 { return [][]uint64{out} })
		return
	}
	s.mu.Lock()
	s.stats.Batches++
	s.stats.BatchedJobs += int64(len(batch))
	s.mu.Unlock()
	runJobs(s, batch, batchOps{}, func(rank int) ([]batchItem, error) { return batchInput(batch, rank) },
		func(out []batchItem) [][]uint64 { return splitByJob(out, len(batch)) })
}

// localInput returns rank's share of the job input: a view of its
// contiguous slice of the inline keys (dhsort.Sort never modifies its
// input), or the rank's generated workload partition.
func localInput(sp JobSpec, rank int) ([]uint64, error) {
	if len(sp.Keys) > 0 {
		lo, hi := rankShare(len(sp.Keys), sp.P, rank)
		return sp.Keys[lo:hi:hi], nil
	}
	n := workload.LocalSize(sp.N, sp.P, rank)
	return workload.Spec{Dist: workload.Distribution(sp.Dist), Seed: sp.Seed, Span: sp.Span}.Rank(rank, n)
}

func workloadName(sp JobSpec) string {
	if len(sp.Keys) > 0 {
		return "inline"
	}
	return sp.Dist
}

// runJobs is the one job runner: it sorts, as one world run, the keys
// local(rank) hands each rank, verifies the result, and gives job i of the
// batch split(out)[i] of every surviving rank's output, in rank order.  The
// world is a warm pooled one, or a dedicated single-shot one for a job that
// injects faults: a fault plan can kill ranks for good, which would poison a
// shared world.  A spilled job's run store lives in a private scratch
// directory, removed when the job finishes.
func runJobs[K any](s *Server, batch []*job, ops dhsort.Ops[K], local func(rank int) ([]K, error), split func([]K) [][]uint64) {
	sp := batch[0].spec // a batch shares its world shape and Settings
	p := sp.P
	fail := func(poolHit bool, err error) {
		for _, j := range batch {
			s.failJob(j, poolHit, err)
		}
	}
	var scratch string
	if sp.Spill {
		dir, err := os.MkdirTemp(s.cfg.ScratchDir, "dhsort-scratch-")
		if err != nil {
			fail(false, err)
			return
		}
		scratch = dir
		defer os.RemoveAll(dir)
	}

	recs := make([]*metrics.Recorder, p)
	outs := make([][]K, p)
	verified := make([]bool, p)
	survivors := make([]int, p) // 0 for a rank that died under the fault plan
	fn := func(c *dhsort.Comm) error {
		rank := c.Rank()
		in, err := local(rank)
		if err != nil {
			return err
		}
		rec := metrics.ForComm(c)
		recs[rank] = rec
		out, eff, err := dhsort.SortResilient(c, in, ops, sp.config(rec, scratch))
		if err != nil {
			rec.Finish()
			return err
		}
		ok := dhsort.IsGloballySorted(eff, out, ops)
		rec.Finish()
		rec.SetElements(len(out))
		outs[rank], verified[rank], survivors[rank] = out, ok, eff.Size()
		return nil
	}

	var (
		makespan time.Duration
		hit      bool
		elastic  *metrics.ElasticStat
		err      error
	)
	if sp.Fault != "" {
		makespan, err = runDedicated(sp, fn)
	} else {
		key := sp.world()
		var pw *dhsort.PersistentWorld
		if pw, hit, err = s.pool.checkout(key); err == nil {
			err = pw.Execute(fn)
			makespan, elastic = pw.Makespan(), elasticStatOf(pw)
			s.pool.checkin(key, pw)
		}
	}
	if err != nil {
		fail(hit, err)
		return
	}

	perJob := make([][]uint64, len(batch))
	okAll, surv := true, 0
	var live []*metrics.Recorder
	for r := 0; r < p; r++ {
		if recs[r] != nil {
			live = append(live, recs[r])
		}
		if survivors[r] == 0 {
			continue
		}
		okAll, surv = okAll && verified[r], survivors[r]
		for i, ks := range split(outs[r]) {
			perJob[i] = append(perJob[i], ks...)
		}
	}

	alg := "dhsort"
	if len(batch) > 1 {
		alg = "dhsort-batch"
	}
	var sum metrics.Summary
	var ring []RingEntry
	if len(live) > 0 {
		sum = metrics.Summarize(live)
		for _, j := range batch {
			rec := metrics.NewRecord(alg, p, workload.LocalSize(j.spec.n(), p, 0), workloadName(j.spec),
				[]time.Duration{makespan}, sum)
			rec.MemBudget, rec.Elastic = j.spec.MemBudget, elastic
			ring = append(ring, RingEntry{ID: j.st.ID, Tenant: j.st.Tenant,
				Doc: metrics.JobDocument(j.spec.Model, ranksPerNode, j.spec.Seed, j.spec.Fault, rec)})
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for i, j := range batch {
		s.finishLocked(j, StateDone)
		j.output = perJob[i]
		st := &j.st
		st.Algorithm, st.PoolHit, st.Survivors, st.MakespanNS = alg, hit, surv, int64(makespan)
		if len(batch) > 1 {
			st.Batched, st.BatchSize = true, len(batch)
		}
		st.Verified = okAll && len(j.output) == st.N
		st.SpilledRuns = sum.SpilledRuns
		if st.Spilled {
			s.stats.SpilledJobs++
		}
	}
	s.stats.JobsDone += int64(len(batch))
	s.stats.SpilledRuns += sum.SpilledRuns
	s.stats.SpillBytes += sum.SpillBytes
	if len(ring) > 0 {
		s.lastImb = sum.TimeImbalance
		s.stats.Jobs = append(s.stats.Jobs, ring...)
		if over := len(s.stats.Jobs) - s.cfg.MetricsRing; over > 0 {
			s.stats.Jobs = append([]RingEntry(nil), s.stats.Jobs[over:]...)
		}
	}
}

// runDedicated runs fn on a single-shot world under sp's fault plan and
// returns the run's makespan.
func runDedicated(sp JobSpec, fn func(c *dhsort.Comm) error) (time.Duration, error) {
	plan, err := dhsort.ParseFaultPlan(sp.Fault)
	if err != nil {
		return 0, err
	}
	model, err := simnet.ParseModel(sp.Model, ranksPerNode)
	if err != nil {
		return 0, err
	}
	return dhsort.RunTimedWithFaults(sp.P, model, plan, fn)
}

// elasticStatOf captures a pooled world's elasticity history for the job's
// metrics record: nil for worlds that never changed size, so pre-existing
// documents stay byte-identical.
func elasticStatOf(pw *dhsort.PersistentWorld) *metrics.ElasticStat {
	joined, removed := pw.Joined(), pw.Removed()
	if joined == 0 && removed == 0 {
		return nil
	}
	return &metrics.ElasticStat{BaseP: pw.BaseSize(), JoinedRanks: joined, RemovedRanks: removed}
}
