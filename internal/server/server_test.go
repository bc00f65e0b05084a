package server

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"dhsort/internal/core"
	"dhsort/internal/keys"
	"dhsort/internal/sortutil"
	"dhsort/internal/xmath"
)

// newTestServer builds a server with no background workers, so tests drive
// runBatch deterministically.
func newTestServer(cfg Config) *Server {
	cfg.Workers = 1
	s := New(cfg)
	return s
}

// mkJob registers a job directly in the table, bypassing the queue, so the
// test can hand it to runBatch itself and the background worker never races
// for it.
func mkJob(t *testing.T, s *Server, id string, spec JobSpec) *job {
	t.Helper()
	if err := s.normalize(&spec); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	j := newJob(id, "t", spec)
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	return j
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

// TestBatchOpsImage pins batchOps' image as keys' image tests do: a 2-byte job
// index as the primary image with the 8-byte key as its suffix, no codec, no
// self image, no value line, and not lossless — so a batch never spills.
func TestBatchOpsImage(t *testing.T) {
	im := keys.ImageOf[batchItem](batchOps{})
	if im.Width != 2 || im.Shift != 0 || im.Of == nil || im.Codec != nil || im.Self ||
		im.Suffix == nil || im.SuffixWidth != 8 || im.Lossless || im.Value != nil || im.FromValue != nil {
		t.Fatalf("ImageOf(batchOps) = %+v", im)
	}
	items := []batchItem{{0, 0}, {0, math.MaxUint64}, {1, 0}, {1, 5}, {math.MaxUint16, 3}}
	for _, a := range items {
		for _, b := range items {
			oa, ob, sa, sb := im.Of(a), im.Of(b), im.Suffix(a), im.Suffix(b)
			if got := oa < ob || oa == ob && sa < sb; got != (batchOps{}).Less(a, b) {
				t.Errorf("(job, key) image order disagrees with Less for %+v vs %+v", a, b)
			}
		}
	}
}

func TestBatchOpsRoundtripAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := batchOps{}
	prev := batchItem{}
	first := true
	for i := 0; i < 2000; i++ {
		it := batchItem{Job: uint16(rng.Intn(1 << 16)), Key: rng.Uint64()}
		if got := ops.FromBits(ops.ToBits(it)); got != it {
			t.Fatalf("roundtrip: %+v -> %+v", it, got)
		}
		if !first {
			lessKeys := ops.Less(prev, it)
			a, b := ops.ToBits(prev), ops.ToBits(it)
			lessBits := a.Hi < b.Hi || (a.Hi == b.Hi && a.Lo < b.Lo)
			if lessKeys != lessBits {
				t.Fatalf("embedding not monotone for %+v vs %+v", prev, it)
			}
		}
		prev, first = it, false
	}
	if xmath.U128FromParts(1, 0) != (xmath.U128{Hi: 1}) {
		t.Fatal("U128 layout assumption broken")
	}

	// The two-stage radix kernel: every job id three times over, in random
	// order, with duplicate and extreme keys, split into runs as the merge
	// re-sort sees its received blocks.  The dispatch must pick radix and
	// order exactly as the comparison sort does.
	items := make([]batchItem, 3<<16)
	for i := range items {
		var k uint64
		switch rng.Intn(4) {
		case 0:
			k = 0
		case 1:
			k = math.MaxUint64
		case 2:
			k = uint64(rng.Intn(16))
		default:
			k = rng.Uint64()
		}
		items[i] = batchItem{Job: uint16(i), Key: k}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	want := append([]batchItem(nil), items...)
	sortutil.Sort(want, ops.Less)
	third := len(items) / 3
	runs := [][]batchItem{items[:third], items[third : 2*third], items[2*third:]}
	for _, threads := range []int{1, 4} {
		got := make([]batchItem, len(items))
		kernel, _ := core.LocalSortRuns(got, runs, ops, "", threads, nil)
		if kernel != core.KernelRadix {
			t.Fatalf("threads=%d: batch items dispatched to %q, want %q", threads, kernel, core.KernelRadix)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("threads=%d: radix order differs from Less at %d: %+v vs %+v", threads, i, got[i], want[i])
			}
		}
	}
}

// TestRunSharedBatchesJobs drives the shared-world path directly: several
// compatible jobs, one world run, every job's output sorted and
// multiset-identical to its own input.
func TestRunSharedBatchesJobs(t *testing.T) {
	s := newTestServer(Config{P: 4, QuotaRate: 1000, QuotaBurst: 1000})
	defer s.Close()

	rng := rand.New(rand.NewSource(42))
	var batch []*job
	var want [][]uint64
	for i := 0; i < 5; i++ {
		n := 50 + rng.Intn(200)
		ks := make([]uint64, n)
		for k := range ks {
			ks[k] = rng.Uint64()
		}
		batch = append(batch, mkJob(t, s, ids(i), JobSpec{Keys: ks, P: 4}))
		want = append(want, sortedCopy(ks))
	}
	s.runBatch(batch)

	for i, j := range batch {
		out, st, err := s.Result(j.st.ID)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !st.Batched || st.BatchSize != len(batch) {
			t.Errorf("job %d: batched=%v size=%d, want true/%d", i, st.Batched, st.BatchSize, len(batch))
		}
		if !st.Verified {
			t.Errorf("job %d not verified", i)
		}
		if !equalU64(out, want[i]) {
			t.Errorf("job %d: output differs from sorted input (len %d vs %d)", i, len(out), len(want[i]))
		}
	}
	m := s.MetricsSnapshot()
	if m.Batches != 1 || m.BatchedJobs != int64(len(batch)) {
		t.Errorf("batch counters = %d/%d, want 1/%d", m.Batches, m.BatchedJobs, len(batch))
	}
	kernels := map[string]string{}
	for _, e := range m.Jobs {
		if len(e.Doc.Records) == 1 {
			kernels[e.ID] = e.Doc.Records[0].LocalSortKernel
		}
	}
	for i, j := range batch {
		if k := kernels[j.st.ID]; k != core.KernelRadix {
			t.Errorf("job %d: metrics document records kernel %q, want %q", i, k, core.KernelRadix)
		}
	}
}

func ids(i int) string { return string(rune('a'+i)) + "-job" }

// TestRunSingleWorkloadJob runs a generated-workload job through the pooled
// path and checks the output is a sorted permutation of the workload.
func TestRunSingleWorkloadJob(t *testing.T) {
	s := newTestServer(Config{P: 4})
	defer s.Close()
	j := mkJob(t, s, "w-1", JobSpec{N: 3000, Dist: "zipf", Seed: 9, P: 4})
	s.runBatch([]*job{j})
	out, st, err := s.Result("w-1")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Verified || st.State != StateDone {
		t.Fatalf("status = %+v, want verified done", st)
	}
	if len(out) != 3000 {
		t.Fatalf("output has %d keys, want 3000", len(out))
	}
	var all []uint64
	for r := 0; r < 4; r++ {
		ks, err := localInput(j.spec, r)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ks...)
	}
	if !equalU64(out, sortedCopy(all)) {
		t.Error("output is not the sorted workload")
	}
}

// TestPoolHitOnWarmWorld pins the pool contract: the second job of the same
// shape reuses the first job's world.
func TestPoolHitOnWarmWorld(t *testing.T) {
	s := newTestServer(Config{P: 3})
	defer s.Close()
	j1 := mkJob(t, s, "p-1", JobSpec{Keys: []uint64{5, 1, 9, 2}, P: 3, NoBatch: true})
	s.runBatch([]*job{j1})
	j2 := mkJob(t, s, "p-2", JobSpec{Keys: []uint64{8, 3, 7}, P: 3, NoBatch: true})
	s.runBatch([]*job{j2})

	st1, _ := s.Status("p-1")
	st2, _ := s.Status("p-2")
	if st1.PoolHit {
		t.Error("first job of a shape reported a pool hit")
	}
	if !st2.PoolHit {
		t.Error("second job of the same shape missed the warm world")
	}
	m := s.MetricsSnapshot()
	if m.Pool.Hits != 1 || m.Pool.Misses != 1 || m.Pool.Built != 1 {
		t.Errorf("pool stats = %+v, want hits=1 misses=1 built=1", m.Pool)
	}
}

// TestFaultJobRunsDedicated: a fault-injecting job completes correctly and
// never touches the pool.
func TestFaultJobRunsDedicated(t *testing.T) {
	s := newTestServer(Config{P: 4})
	defer s.Close()
	j := mkJob(t, s, "f-1", JobSpec{N: 800, P: 4, Model: "pgas", Fault: "drop=0.02,seed=3"})
	s.runBatch([]*job{j})
	out, st, err := s.Result("f-1")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Verified {
		t.Error("fault job not verified")
	}
	if len(out) != 800 {
		t.Errorf("fault job output has %d keys, want 800", len(out))
	}
	if m := s.MetricsSnapshot(); m.Pool.Hits+m.Pool.Misses != 0 {
		t.Errorf("fault job touched the pool: %+v", m.Pool)
	}
	if len(s.MetricsSnapshot().Jobs) != 1 {
		t.Error("fault job left no metrics document")
	}
}

// TestFinishedInlineJobDropsInput: a done or failed job keeps its output,
// not its inline input, and its status still reports N.  The sorter reads
// views of the caller's keys, which stay as submitted.
func TestFinishedInlineJobDropsInput(t *testing.T) {
	s := newTestServer(Config{P: 4, QuotaRate: 1000, QuotaBurst: 1000})
	defer s.Close()
	ks := []uint64{9, 3, 7, 1, 8, 2, 6}
	solo := mkJob(t, s, "d-1", JobSpec{Keys: ks, P: 4, NoBatch: true})
	a := mkJob(t, s, "d-2", JobSpec{Keys: ks[:5], P: 4})
	b := mkJob(t, s, "d-3", JobSpec{Keys: ks[:3], P: 4})
	s.runBatch([]*job{solo})
	s.runBatch([]*job{a, b})
	failed := mkJob(t, s, "d-4", JobSpec{Keys: ks, P: 4})
	s.markRunning([]*job{failed})
	s.failJob(failed, false, errors.New("boom"))

	for _, c := range []struct {
		j     *job
		n     int
		state string
	}{{solo, 7, StateDone}, {a, 5, StateDone}, {b, 3, StateDone}, {failed, 7, StateFailed}} {
		st, _ := s.Status(c.j.st.ID)
		s.mu.Lock()
		kept := c.j.spec.Keys
		s.mu.Unlock()
		if st.State != c.state || st.N != c.n || kept != nil {
			t.Errorf("job %s: state %s n %d, %d input keys kept; want %s, %d, none",
				c.j.st.ID, st.State, st.N, len(kept), c.state, c.n)
		}
	}
	for id, want := range map[string][]uint64{"d-1": ks, "d-2": ks[:5], "d-3": ks[:3]} {
		if out, _, err := s.Result(id); err != nil || !equalU64(out, sortedCopy(want)) {
			t.Errorf("job %s: result %v, %v; want %v", id, out, err, sortedCopy(want))
		}
	}
	if !equalU64(ks, []uint64{9, 3, 7, 1, 8, 2, 6}) {
		t.Errorf("submitted keys changed to %v", ks)
	}
	if m := s.MetricsSnapshot(); len(m.Jobs) != 3 || m.JobsDone != 3 || m.JobsFailed != 1 {
		t.Errorf("metrics: %d documents, %d done, %d failed; want 3, 3, 1", len(m.Jobs), m.JobsDone, m.JobsFailed)
	}
}

func TestQuotaRejectsOverLimitTenant(t *testing.T) {
	old := timeNow
	defer func() { timeNow = old }()
	now := time.Unix(1000, 0)
	timeNow = func() time.Time { return now }

	q := newQuotaTable(1, 3) // 1 job/s, burst 3
	for i := 0; i < 3; i++ {
		if ok, _ := q.allow("acme"); !ok {
			t.Fatalf("submit %d rejected inside burst", i)
		}
	}
	ok, wait := q.allow("acme")
	if ok {
		t.Fatal("4th submit allowed over burst")
	}
	if wait <= 0 {
		t.Error("no Retry-After hint on rejection")
	}
	if ok, _ := q.allow("other"); !ok {
		t.Error("unrelated tenant rejected")
	}
	now = now.Add(2 * time.Second) // refill 2 tokens
	if ok, _ := q.allow("acme"); !ok {
		t.Error("submit rejected after refill")
	}
}

func TestQueueFullAndPopCompatible(t *testing.T) {
	q := newJobQueue(3)
	a := newJob("a", "t", JobSpec{P: 2})
	b := newJob("b", "t", JobSpec{P: 4})
	c := newJob("c", "t", JobSpec{P: 2})
	for _, j := range []*job{a, b, c} {
		if !q.tryPush(j) {
			t.Fatalf("push %s failed below depth", j.st.ID)
		}
	}
	if q.tryPush(newJob("d", "t", JobSpec{})) {
		t.Fatal("push beyond depth succeeded")
	}
	got := q.popCompatible(func(j *job) bool { return j.spec.P == 2 }, 8)
	if len(got) != 2 || got[0].st.ID != "a" || got[1].st.ID != "c" {
		t.Fatalf("popCompatible = %v, want [a c]", jobIDs(got))
	}
	if q.len() != 1 {
		t.Fatalf("queue len = %d, want 1", q.len())
	}
	j, ok := q.pop()
	if !ok || j.st.ID != "b" {
		t.Fatalf("pop = %v/%v, want b", j, ok)
	}
	q.close()
	if _, ok := q.pop(); ok {
		t.Fatal("pop on closed empty queue returned a job")
	}
}

func jobIDs(js []*job) []string {
	var out []string
	for _, j := range js {
		out = append(out, j.st.ID)
	}
	return out
}

func TestSubmitQueueFullReject(t *testing.T) {
	// Server whose worker pool is saturated: depth-1 queue, a worker wedged
	// on a slow job is simulated by not starting workers at all — construct
	// the pieces directly instead.
	s := &Server{
		cfg:     Config{}.withDefaults(),
		queue:   newJobQueue(1),
		pool:    newWorldPool(1),
		quotas:  newQuotaTable(1000, 1000),
		jobs:    make(map[string]*job),
		started: timeNow(),
		stats:   Metrics{Tenants: make(map[string]int64)},
	}
	s.cfg.QueueDepth = 1
	if _, err := s.Submit("t1", JobSpec{Keys: []uint64{3, 1}}); err != nil {
		t.Fatalf("first submit rejected: %v", err)
	}
	_, err := s.Submit("t1", JobSpec{Keys: []uint64{2}})
	var rej *Reject
	if !errors.As(err, &rej) || rej.Reason != "queue_full" || rej.HTTPStatus != 429 {
		t.Fatalf("second submit = %v, want queue_full 429", err)
	}
	if rej.RetryAfter < 1 {
		t.Error("queue_full rejection carries no Retry-After")
	}
	if m := s.MetricsSnapshot(); m.RejectedQueueFull != 1 || m.JobsSubmitted != 1 {
		t.Errorf("counters = %+v", m)
	}
	s.queue.close()
}

func TestNormalizeRejectsBadSpecs(t *testing.T) {
	s := newTestServer(Config{MaxN: 100})
	defer s.Close()
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"empty", JobSpec{}, "bad_request"},
		{"both", JobSpec{Keys: []uint64{1}, N: 5}, "bad_request"},
		{"too-large", JobSpec{N: 101}, "too_large"},
		{"bad-dist", JobSpec{N: 5, Dist: "nope"}, "bad_request"},
		{"bad-model", JobSpec{N: 5, Model: "nope"}, "bad_request"},
		{"bad-fault", JobSpec{N: 5, Fault: "nope"}, "bad_request"},
		{"bad-p", JobSpec{N: 5, P: 9999}, "bad_request"},
		{"neg-budget", JobSpec{N: 5, MemBudget: -1}, "bad_request"},
	}
	for _, tc := range cases {
		sp := tc.spec
		err := s.normalize(&sp)
		var rej *Reject
		if !errors.As(err, &rej) || rej.Reason != tc.want {
			t.Errorf("%s: normalize = %v, want %s", tc.name, err, tc.want)
		}
	}
	good := JobSpec{N: 50, Model: "pgas"}
	if err := s.normalize(&good); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	if good.Threads != 1 {
		t.Error("virtual-time job not pinned to threads=1")
	}
	if good.Dist != "uniform" || good.Seed != 1 || good.P != s.cfg.P {
		t.Errorf("defaults not filled: %+v", good)
	}
	plain := JobSpec{N: 50}
	if err := s.normalize(&plain); err != nil {
		t.Fatalf("default spec rejected: %v", err)
	}
	if plain.Exchange.String() != "auto" || plain.Merge.String() != "resort" || plain.Model != "none" {
		t.Errorf("name defaults not filled: exchange %v, merge %v, model %q", plain.Exchange, plain.Merge, plain.Model)
	}
}

// TestSpilledJobNeverBatches pins the batching decision for out-of-core
// jobs: the batch embedding (batchOps) is not registered lossless, so a
// shared batch run would silently ignore the mem_budget — spilled jobs
// must run alone against their own scratch store.
func TestSpilledJobNeverBatches(t *testing.T) {
	s := newTestServer(Config{P: 4})
	defer s.Close()

	spill := JobSpec{N: 512, P: 4, Spill: true}
	if err := s.normalize(&spill); err != nil {
		t.Fatal(err)
	}
	if spill.MemBudget != 128 {
		t.Errorf("default mem_budget = %d, want 128 (an eighth of the per-rank input bytes)", spill.MemBudget)
	}
	if s.batchEligible(spill) {
		t.Error("spilled job is batch-eligible; out-of-core jobs must run alone")
	}
	budget := JobSpec{N: 512, P: 4, MemBudget: 256}
	if err := s.normalize(&budget); err != nil {
		t.Fatal(err)
	}
	if !budget.Spill {
		t.Error("mem_budget alone did not imply spill")
	}
	if s.batchEligible(budget) {
		t.Error("mem_budget job is batch-eligible")
	}
	resident := JobSpec{N: 512, P: 4}
	if err := s.normalize(&resident); err != nil {
		t.Fatal(err)
	}
	if !s.batchEligible(resident) {
		t.Error("identical resident job lost batch eligibility")
	}
}

// TestSpilledJobEndToEnd runs the same workload resident and spilled and
// requires bit-identical output, a populated per-job scratch path, and the
// spill counters on the metrics snapshot.
func TestSpilledJobEndToEnd(t *testing.T) {
	s := newTestServer(Config{P: 4, ScratchDir: t.TempDir()})
	defer s.Close()

	res := mkJob(t, s, "r-1", JobSpec{N: 4096, Dist: "zipf", Seed: 11, P: 4, Model: "pgas"})
	s.runBatch([]*job{res})
	want, stRes, err := s.Result("r-1")
	if err != nil {
		t.Fatal(err)
	}
	if stRes.Spilled || stRes.SpilledRuns != 0 {
		t.Errorf("resident job reported spilling: %+v", stRes)
	}

	sp := mkJob(t, s, "s-1", JobSpec{N: 4096, Dist: "zipf", Seed: 11, P: 4, Model: "pgas", Spill: true})
	s.runBatch([]*job{sp})
	got, st, err := s.Result("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Verified || !st.Spilled || st.SpilledRuns == 0 {
		t.Fatalf("spilled status = %+v, want verified with spilled runs", st)
	}
	if !equalU64(got, want) {
		t.Error("spilled output differs from the resident run")
	}
	m := s.MetricsSnapshot()
	if m.SpilledJobs != 1 || m.SpilledRuns != st.SpilledRuns || m.SpillBytes <= 0 {
		t.Errorf("spill counters = jobs=%d runs=%d bytes=%d, want 1/%d/>0",
			m.SpilledJobs, m.SpilledRuns, m.SpillBytes, st.SpilledRuns)
	}
}
