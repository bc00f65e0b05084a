package server

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"dhsort"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
	"dhsort/internal/xmath"
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
	WarmCap      int           // cached warm-start splitter sets (64)
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
	if c.WarmCap <= 0 {
		c.WarmCap = 64
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
	// WarmStart marks a job whose splitter refinement was seeded from a
	// compatible earlier job's converged splitters.
	WarmStart bool `json:"warm_start,omitempty"`
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

// job is the engine-side record.  Mutable fields are guarded by Server.mu.
type job struct {
	id     string
	tenant string
	spec   JobSpec

	state     string
	errMsg    string
	alg       string
	batched   bool
	batchSize int
	poolHit   bool
	warmStart bool
	verified  bool
	survivors int
	spilled   int64
	submitted time.Time
	started   time.Time
	finished  time.Time
	makespan  time.Duration
	output    []uint64
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
	Warm              WarmStats        `json:"warm"`
	Autoscale         AutoscaleStats   `json:"autoscale"`
	Tenants           map[string]int64 `json:"tenants"`
	Jobs              []RingEntry      `json:"jobs"`
}

// Server is the sort service engine.  It owns the admission queue, the
// tenant quotas, the warm world pool, the worker goroutines and the job
// table; internal/api puts HTTP in front of it.
type Server struct {
	cfg    Config
	queue  *jobQueue
	pool   *worldPool
	warm   *warmCache
	quotas *quotaTable
	scale  *autoscaler // nil unless Config.Autoscale.Enabled
	wg     sync.WaitGroup

	mu          sync.Mutex
	closed      bool
	draining    bool
	inflight    int
	lastImb     float64 // latest completed job's time-imbalance factor
	rejDrain    int64
	seq         int
	jobs        map[string]*job
	ring        []RingEntry
	tenants     map[string]int64
	started     time.Time
	submitted   int64
	done        int64
	failed      int64
	rejQuota    int64
	rejQueue    int64
	batches     int64
	batchedJobs int64
	spilledJobs int64
	spilledRuns int64
	spillBytes  int64
}

// New starts a server with cfg.Workers executor goroutines.  Close releases
// them and the pooled worlds.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		queue:   newJobQueue(cfg.QueueDepth),
		pool:    newWorldPool(cfg.PoolIdle),
		warm:    newWarmCache(cfg.WarmCap),
		quotas:  newQuotaTable(cfg.QuotaRate, cfg.QuotaBurst),
		jobs:    make(map[string]*job),
		tenants: make(map[string]int64),
		started: timeNow(),
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
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether Drain was called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Quiesce blocks until the queue is empty and no job is in flight, or the
// timeout passes; it reports whether the server fully drained.
func (s *Server) Quiesce(timeout time.Duration) bool {
	deadline := timeNow().Add(timeout)
	for {
		s.mu.Lock()
		idle := s.inflight == 0
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
		Inflight:   s.inflight,
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
	if s.draining {
		s.rejDrain++
		s.mu.Unlock()
		return JobStatus{}, &Reject{HTTPStatus: 503, Reason: "draining",
			Detail:     "server is draining; resubmit elsewhere or after it restarts",
			RetryAfter: 5}
	}
	s.mu.Unlock()
	if ok, wait := s.quotas.allow(tenant); !ok {
		s.mu.Lock()
		s.rejQuota++
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
	j := &job{
		id:        fmt.Sprintf("j-%06d", s.seq),
		tenant:    tenant,
		spec:      spec,
		state:     StateQueued,
		submitted: timeNow(),
	}
	s.jobs[j.id] = j
	s.submitted++
	s.tenants[tenant]++
	st := j.statusLocked()
	s.mu.Unlock()

	if !s.queue.tryPush(j) {
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.submitted--
		s.tenants[tenant]--
		s.rejQueue++
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
	return j.statusLocked(), true
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
	st := j.statusLocked()
	switch j.state {
	case StateDone:
		return j.output, st, nil
	case StateFailed:
		return nil, st, &Reject{HTTPStatus: 409, Reason: "job_failed", Detail: j.errMsg}
	default:
		return nil, st, &Reject{HTTPStatus: 409, Reason: "not_ready",
			Detail: fmt.Sprintf("job %s is %s", id, j.state), RetryAfter: 1}
	}
}

// MetricsSnapshot returns the server-wide counters, pool statistics, and
// the retained per-job metrics ring (oldest first).
func (s *Server) MetricsSnapshot() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		UptimeNS:          int64(timeNow().Sub(s.started)),
		JobsSubmitted:     s.submitted,
		JobsDone:          s.done,
		JobsFailed:        s.failed,
		RejectedQuota:     s.rejQuota,
		RejectedQueueFull: s.rejQueue,
		Batches:           s.batches,
		BatchedJobs:       s.batchedJobs,
		SpilledJobs:       s.spilledJobs,
		SpilledRuns:       s.spilledRuns,
		SpillBytes:        s.spillBytes,
		RejectedDraining:  s.rejDrain,
		Draining:          s.draining,
		QueueLen:          s.queue.len(),
		QueueDepth:        s.cfg.QueueDepth,
		Inflight:          s.inflight,
		Pool:              s.pool.stats(),
		Warm:              s.warm.stats(),
		Autoscale:         s.autoscaleStats(),
		Tenants:           make(map[string]int64, len(s.tenants)),
		Jobs:              append([]RingEntry(nil), s.ring...),
	}
	for t, n := range s.tenants {
		m.Tenants[t] = n
	}
	return m
}

func (s *Server) autoscaleStats() AutoscaleStats {
	if s.scale == nil {
		return AutoscaleStats{TargetP: s.cfg.P}
	}
	return s.scale.statsLocked()
}

func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:          j.id,
		Tenant:      j.tenant,
		State:       j.state,
		N:           j.spec.n(),
		P:           j.spec.P,
		Algorithm:   j.alg,
		Batched:     j.batched,
		BatchSize:   j.batchSize,
		PoolHit:     j.poolHit,
		WarmStart:   j.warmStart,
		Spilled:     j.spec.Spill,
		SpilledRuns: j.spilled,
		Verified:    j.verified,
		Survivors:   j.survivors,
		Error:       j.errMsg,
		SubmittedAt: j.submitted.UnixNano(),
		MakespanNS:  int64(j.makespan),
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UnixNano()
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UnixNano()
	}
	return st
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
			key := batchKeyOf(j.spec)
			match := func(o *job) bool {
				return s.batchEligible(o.spec) && batchKeyOf(o.spec) == key
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

// outcome carries one finished job's results to the bookkeeper.
type outcome struct {
	output      []uint64
	alg         string
	batched     bool
	batchSize   int
	poolHit     bool
	warmStart   bool
	verified    bool
	survivors   int
	spilledRuns int64
	spillBytes  int64
	makespan    time.Duration
	timeImb     float64
	doc         metrics.Document
	hasDoc      bool
}

func (s *Server) markRunning(batch []*job) {
	now := timeNow()
	s.mu.Lock()
	for _, j := range batch {
		j.state = StateRunning
		j.started = now
	}
	s.inflight += len(batch)
	s.mu.Unlock()
}

// dropInputLocked releases a finished job's inline keys; N keeps the job's
// size for its status.
func (j *job) dropInputLocked() {
	if len(j.spec.Keys) > 0 {
		j.spec.N, j.spec.Keys = len(j.spec.Keys), nil
	}
}

func (s *Server) complete(j *job, oc outcome) {
	s.mu.Lock()
	j.dropInputLocked()
	j.state = StateDone
	j.finished = timeNow()
	j.output = oc.output
	j.alg = oc.alg
	j.batched = oc.batched
	j.batchSize = oc.batchSize
	j.poolHit = oc.poolHit
	j.warmStart = oc.warmStart
	j.verified = oc.verified
	j.survivors = oc.survivors
	j.spilled = oc.spilledRuns
	j.makespan = oc.makespan
	s.done++
	s.inflight--
	if oc.hasDoc {
		s.lastImb = oc.timeImb
	}
	if j.spec.Spill {
		s.spilledJobs++
	}
	s.spilledRuns += oc.spilledRuns
	s.spillBytes += oc.spillBytes
	if oc.hasDoc {
		s.ring = append(s.ring, RingEntry{ID: j.id, Tenant: j.tenant, Doc: oc.doc})
		if over := len(s.ring) - s.cfg.MetricsRing; over > 0 {
			s.ring = append([]RingEntry(nil), s.ring[over:]...)
		}
	}
	s.mu.Unlock()
}

func (s *Server) failJob(j *job, poolHit bool, err error) {
	s.mu.Lock()
	j.dropInputLocked()
	j.state = StateFailed
	j.finished = timeNow()
	j.errMsg = err.Error()
	j.poolHit = poolHit
	s.failed++
	s.inflight--
	s.mu.Unlock()
}

// runBatch executes one claimed batch (size 1 = a lone job).
func (s *Server) runBatch(batch []*job) {
	s.markRunning(batch)
	if len(batch) == 1 {
		s.runSingle(batch[0])
		return
	}
	s.mu.Lock()
	s.batches++
	s.batchedJobs += int64(len(batch))
	s.mu.Unlock()
	s.runShared(batch)
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

// runSingle executes one job: on a pooled warm world when fault-free, on a
// dedicated single-shot world when the job injects faults (fault plans can
// permanently kill ranks, which would poison a shared world).
func (s *Server) runSingle(j *job) {
	sp := j.spec
	p := sp.P

	// Spilled jobs get a private scratch directory for their run store:
	// local sort runs, exchange spill files and durable checkpoint shards
	// all live under it, and it is reclaimed when the job finishes.
	var scratch string
	if sp.Spill {
		dir, err := os.MkdirTemp(s.cfg.ScratchDir, "dhsort-scratch-")
		if err != nil {
			s.failJob(j, false, err)
			return
		}
		scratch = dir
		defer os.RemoveAll(dir)
	}

	recs := make([]*metrics.Recorder, p)
	outs := make([][]uint64, p)
	verified := make([]bool, p)
	survivors := make([]int, p)
	finished := make([]bool, p)

	// Warm start: seed splitter refinement from a compatible completed
	// job's converged splitters, and capture this run's own splitters
	// through the sink for the next job.  The sink fires on every rank;
	// the first one wins (the values are identical across ranks).
	wkey, warmOK := warmKeyOf(j.tenant, sp)
	var (
		warmIvs   []dhsort.WarmInterval
		prevIters int
		warmHit   bool
	)
	if warmOK {
		warmIvs, prevIters, warmHit = s.warm.lookup(wkey)
	}
	var (
		sinkMu    sync.Mutex
		splitters []uint64
		sinkIters = -1
	)
	sink := func(bits []xmath.U128, iters int) {
		sinkMu.Lock()
		if sinkIters == -1 {
			sinkIters = iters
			splitters = make([]uint64, len(bits))
			for i, b := range bits {
				splitters[i] = b.Hi // Uint64Ops embeds the key in the high word
			}
		}
		sinkMu.Unlock()
	}

	fn := func(c *dhsort.Comm) error {
		rank := c.Rank()
		local, err := localInput(sp, rank)
		if err != nil {
			return err
		}
		rec := metrics.ForComm(c)
		recs[rank] = rec
		cfg := sp.config(rec, scratch)
		if warmOK {
			cfg.Warm = warmIvs // nil on a cache miss
			cfg.SplitterSink = sink
		}
		out, eff, err := dhsort.SortResilient(c, local, dhsort.Uint64Ops, cfg)
		if err != nil {
			rec.Finish()
			return err
		}
		ok := dhsort.IsGloballySorted(eff, out, dhsort.Uint64Ops)
		rec.Finish()
		rec.SetElements(len(local), len(out))
		outs[rank] = out
		verified[rank] = ok
		survivors[rank] = eff.Size()
		finished[rank] = true
		return nil
	}

	var (
		execErr  error
		makespan time.Duration
		hit      bool
		elastic  *metrics.ElasticStat
	)
	if sp.Fault != "" {
		plan, err := dhsort.ParseFaultPlan(sp.Fault)
		if err != nil {
			s.failJob(j, false, err)
			return
		}
		model, err := simnet.ParseModel(sp.Model, ranksPerNode)
		if err != nil {
			s.failJob(j, false, err)
			return
		}
		makespan, execErr = dhsort.RunTimedWithFaults(p, model, plan, fn)
	} else {
		key := poolKey{P: p, Model: sp.Model}
		pw, gotHit, err := s.pool.checkout(key)
		if err != nil {
			s.failJob(j, false, err)
			return
		}
		hit = gotHit
		execErr = pw.Execute(fn)
		makespan = pw.Makespan()
		elastic = elasticStatOf(pw)
		s.pool.checkin(key, pw)
	}
	if execErr != nil {
		s.failJob(j, hit, execErr)
		return
	}

	var output []uint64
	total, okAll, surv := 0, true, 0
	for r := 0; r < p; r++ {
		if !finished[r] {
			continue // a rank that died under the fault plan
		}
		output = append(output, outs[r]...)
		total += len(outs[r])
		okAll = okAll && verified[r]
		surv = survivors[r]
	}
	okAll = okAll && total == sp.n()

	if warmOK && okAll && sinkIters >= 0 && len(splitters) == p-1 {
		s.warm.store(wkey, splitters, sinkIters)
		if warmHit && prevIters > sinkIters {
			s.warm.addSaved(int64(prevIters - sinkIters))
		}
	}

	oc := outcome{
		output:    output,
		alg:       "dhsort",
		poolHit:   hit,
		warmStart: warmHit,
		verified:  okAll,
		survivors: surv,
		makespan:  makespan,
	}
	var live []*metrics.Recorder
	for _, r := range recs {
		if r != nil {
			live = append(live, r)
		}
	}
	if len(live) > 0 {
		summary := metrics.Summarize(live)
		oc.spilledRuns = summary.SpilledRuns
		oc.spillBytes = summary.SpillBytes
		oc.timeImb = summary.TimeImbalance
		rec := metrics.NewRecord("dhsort", p, workload.LocalSize(sp.n(), p, 0),
			workloadName(sp), []time.Duration{makespan}, summary)
		rec.MemBudget = sp.MemBudget
		rec.Elastic = elastic
		oc.doc = metrics.JobDocument(sp.Model, ranksPerNode, sp.Seed, sp.Fault, rec)
		oc.hasDoc = true
	}
	s.complete(j, oc)
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

// runShared executes several compatible small jobs as ONE world run: every
// key is tagged with its job index and the union is sorted once by
// (Job, Key), amortizing the world's supersteps over the whole batch.
func (s *Server) runShared(batch []*job) {
	sp := batch[0].spec // execution config is identical across the batch
	p := sp.P
	recs := make([]*metrics.Recorder, p)
	outs := make([][]batchItem, p)
	verified := make([]bool, p)

	fn := func(c *dhsort.Comm) error {
		rank := c.Rank()
		var local []batchItem
		for bi, bj := range batch {
			ks, err := localInput(bj.spec, rank)
			if err != nil {
				return err
			}
			for _, k := range ks {
				local = append(local, batchItem{Job: uint16(bi), Key: k})
			}
		}
		rec := metrics.ForComm(c)
		recs[rank] = rec
		out, err := dhsort.Sort(c, local, batchOps{}, sp.config(rec, ""))
		if err != nil {
			rec.Finish()
			return err
		}
		ok := dhsort.IsGloballySorted(c, out, batchOps{})
		rec.Finish()
		rec.SetElements(len(local), len(out))
		outs[rank] = out
		verified[rank] = ok
		return nil
	}

	key := poolKey{P: p, Model: sp.Model}
	pw, hit, err := s.pool.checkout(key)
	if err != nil {
		for _, j := range batch {
			s.failJob(j, false, err)
		}
		return
	}
	execErr := pw.Execute(fn)
	makespan := pw.Makespan()
	elastic := elasticStatOf(pw)
	s.pool.checkin(key, pw)
	if execErr != nil {
		for _, j := range batch {
			s.failJob(j, hit, execErr)
		}
		return
	}

	okAll := true
	perJob := make([][]uint64, len(batch))
	for r := 0; r < p; r++ {
		okAll = okAll && verified[r]
		for bi, ks := range splitByJob(outs[r], len(batch)) {
			perJob[bi] = append(perJob[bi], ks...)
		}
	}

	var live []*metrics.Recorder
	for _, r := range recs {
		if r != nil {
			live = append(live, r)
		}
	}
	summary := metrics.Summarize(live)
	for bi, j := range batch {
		jobOK := okAll && len(perJob[bi]) == j.spec.n()
		oc := outcome{
			output:    perJob[bi],
			alg:       "dhsort-batch",
			batched:   true,
			batchSize: len(batch),
			poolHit:   hit,
			verified:  jobOK,
			survivors: p,
			makespan:  makespan,
		}
		if len(live) > 0 {
			oc.timeImb = summary.TimeImbalance
			rec := metrics.NewRecord("dhsort-batch", p, workload.LocalSize(j.spec.n(), p, 0),
				workloadName(j.spec), []time.Duration{makespan}, summary)
			rec.Elastic = elastic
			oc.doc = metrics.JobDocument(j.spec.Model, ranksPerNode, j.spec.Seed, "", rec)
			oc.hasDoc = true
		}
		s.complete(j, oc)
	}
}
