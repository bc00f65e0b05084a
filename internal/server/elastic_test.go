package server

import (
	"errors"
	"testing"
	"time"

	"dhsort"
)

// TestScalePolicyDeterministic pins the autoscaler's contract: the policy
// is a pure state machine, so a fixed sample sequence always yields the
// same decision sequence — grow after Sustain pressured ticks, silence
// through the cooldown, shrink after IdleTTL of continuous idle.
func TestScalePolicyDeterministic(t *testing.T) {
	cfg := AutoscaleConfig{
		Enabled: true, MinP: 4, MaxP: 12, Step: 4,
		GrowQueue: 2, GrowImbalance: 1.5, Sustain: 3,
		IdleTTL: 4 * time.Second, Cooldown: 2 * time.Second, Interval: time.Second,
	}
	// One pressured burst, continued pressure through the cooldown, then a
	// long idle stretch.  TargetP tracks the policy's own decisions, as the
	// autoscaler does.  Pressure keeps accruing during the cooldown, so the
	// second grow fires on the first tick after it expires.
	samples := []scaleSample{
		{QueueLen: 0},                // 0: idle
		{QueueLen: 3},                // 1: pressure 1
		{QueueLen: 4},                // 2: pressure 2
		{QueueLen: 5},                // 3: pressure 3 -> grow (4 -> 8)
		{QueueLen: 5},                // 4: cooldown tick 1: held
		{QueueLen: 5},                // 5: cooldown tick 2: held
		{QueueLen: 5},                // 6: cooldown over, pressure sustained -> grow (8 -> 12)
		{QueueLen: 0}, {QueueLen: 0}, // 7, 8: cooldown; idle starts accruing
		{QueueLen: 0}, {QueueLen: 0}, // 9, 10: idle reaches IdleTTL -> shrink (12 -> 8)
		{QueueLen: 0}, {QueueLen: 0}, // 11, 12: cooldown, idle re-accrues
		{QueueLen: 0}, {QueueLen: 0}, // 13, 14: second shrink (8 -> 4)
		{QueueLen: 0}, {QueueLen: 0}, // 15, 16: already at the floor: hold
	}
	run := func() []int {
		p := scalePolicy{cfg: cfg}
		target := cfg.MinP
		var ds []int
		for _, sm := range samples {
			sm.TargetP = target
			d := p.decide(sm)
			target += d
			ds = append(ds, d)
		}
		return ds
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged across identical runs: %d vs %d", i, a[i], b[i])
		}
	}
	// Grows land exactly where the schedule says: the third pressured tick,
	// and the first post-cooldown tick of sustained pressure.
	if a[3] != 4 || a[6] != 4 {
		t.Fatalf("grow decisions = %v, want +4 at indices 3 and 6", a)
	}
	for _, i := range []int{4, 5} {
		if a[i] != 0 {
			t.Fatalf("decision %d = %d inside cooldown, want 0", i, a[i])
		}
	}
	// Shrinks fire each time idleTicks reaches IdleTTL/Interval = 4: at
	// sample 10 and, after the post-shrink cooldown, at sample 14.
	shrinks := 0
	for i, d := range a {
		if d < 0 {
			shrinks++
			if i != 10 && i != 14 {
				t.Fatalf("shrink at sample %d, want only at 10 and 14: %v", i, a)
			}
		}
	}
	if shrinks != 2 {
		t.Fatalf("got %d shrinks, want 2: %v", shrinks, a)
	}
	// The target never leaves [MinP, MaxP].
	target := cfg.MinP
	for i, d := range a {
		target += d
		if target < cfg.MinP || target > cfg.MaxP {
			t.Fatalf("target %d out of [%d, %d] after sample %d", target, cfg.MinP, cfg.MaxP, i)
		}
	}
}

// TestScalePolicyImbalanceAndMissPressure: skewed completions or cold pool
// builds only count as pressure while work is actually waiting.
func TestScalePolicyImbalanceAndMissPressure(t *testing.T) {
	cfg := AutoscaleConfig{MinP: 4, MaxP: 8, Step: 4, GrowQueue: 4,
		GrowImbalance: 1.5, Sustain: 2, IdleTTL: time.Hour,
		Cooldown: time.Second, Interval: time.Second}
	p := scalePolicy{cfg: cfg}
	// High imbalance with an empty queue is not pressure.
	for i := 0; i < 4; i++ {
		if d := p.decide(scaleSample{Imbalance: 3.0, TargetP: 4}); d != 0 {
			t.Fatalf("idle-queue imbalance triggered a grow at tick %d", i)
		}
	}
	// With one queued job it is.
	if d := p.decide(scaleSample{Imbalance: 3.0, QueueLen: 1, TargetP: 4}); d != 0 {
		t.Fatal("grew before Sustain")
	}
	if d := p.decide(scaleSample{Imbalance: 3.0, QueueLen: 1, TargetP: 4}); d != 4 {
		t.Fatalf("second pressured tick = %d, want +4", d)
	}

	// Pool misses: only the delta since the last sample counts, and again
	// only with a queue.
	p2 := scalePolicy{cfg: cfg}
	if d := p2.decide(scaleSample{PoolMisses: 50, TargetP: 4}); d != 0 {
		t.Fatal("priming sample counted historical misses as pressure")
	}
	p2.decide(scaleSample{PoolMisses: 51, QueueLen: 1, TargetP: 4})
	if d := p2.decide(scaleSample{PoolMisses: 52, QueueLen: 1, TargetP: 4}); d != 4 {
		t.Fatalf("sustained miss pressure = %d, want +4", d)
	}
}

// TestAutoscalerReshapesIdleWorlds: the reconcile loop grows an idle warm
// world to the target shape in place, re-shelves it under the new key, and
// shrinks it back when the target drops — counting joined and removed
// ranks.  Only managed shapes are touched: a world of a shape the target
// never held keeps its size.
func TestAutoscalerReshapesIdleWorlds(t *testing.T) {
	s := newTestServer(Config{P: 4})
	defer s.Close()
	a := newAutoscaler(s, AutoscaleConfig{
		Enabled: true, MinP: 4, MaxP: 8, Step: 4,
		Interval: time.Second, IdleTTL: time.Hour, Cooldown: time.Second,
		Sustain: 2, GrowQueue: 2, GrowImbalance: 1.5,
	}.withDefaults(s.cfg))

	// Warm a P=4 world through a real job, and shelve a P=6 world the
	// autoscaler must not touch.
	j := mkJob(t, s, "e-1", JobSpec{Keys: []uint64{4, 2, 9, 1}, P: 4, NoBatch: true})
	s.runBatch([]*job{j})
	pinned, _ := dhsort.NewPersistentWorld(6, nil)
	s.pool.checkin(poolKey{P: 6, Model: "none"}, pinned)

	// Grow: retarget to 8 and reconcile.
	a.mu.Lock()
	a.target = 8
	a.managed[8] = true
	a.mu.Unlock()
	a.reconcile()

	pw, hit, err := s.pool.checkout(poolKey{P: 8, Model: "none"})
	if err != nil || !hit {
		t.Fatalf("checkout at target shape: hit=%v err=%v", hit, err)
	}
	if pw.Size() != 8 || pw.BaseSize() != 4 || pw.Joined() != 4 {
		t.Fatalf("grown world: size=%d base=%d joined=%d, want 8/4/4", pw.Size(), pw.BaseSize(), pw.Joined())
	}
	// The grown world still sorts.
	s.pool.checkin(poolKey{P: 8, Model: "none"}, pw)
	j2 := mkJob(t, s, "e-2", JobSpec{Keys: []uint64{7, 3, 8, 5, 6, 1, 2, 4}, P: 8, NoBatch: true})
	s.runBatch([]*job{j2})
	out, st, err := s.Result("e-2")
	if err != nil || !st.Verified || !st.PoolHit {
		t.Fatalf("job on grown world: err=%v verified=%v pool_hit=%v", err, st.Verified, st.PoolHit)
	}
	if !equalU64(out, []uint64{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("grown world mis-sorted: %v", out)
	}

	// Shrink: retarget back to 4.
	a.mu.Lock()
	a.target = 4
	a.mu.Unlock()
	a.reconcile()
	pw2, hit2, err := s.pool.checkout(poolKey{P: 4, Model: "none"})
	if err != nil || !hit2 {
		t.Fatalf("checkout after shrink: hit=%v err=%v", hit2, err)
	}
	if pw2.Size() != 4 || pw2.Removed() != 4 {
		t.Fatalf("shrunk world: size=%d removed=%d, want 4/4", pw2.Size(), pw2.Removed())
	}
	s.pool.checkin(poolKey{P: 4, Model: "none"}, pw2)

	// The unmanaged P=6 world was left alone.
	pw6, hit6, err := s.pool.checkout(poolKey{P: 6, Model: "none"})
	if err != nil || !hit6 || pw6.Size() != 6 {
		t.Fatalf("unmanaged world touched: hit=%v size=%d err=%v", hit6, pw6.Size(), err)
	}
	s.pool.checkin(poolKey{P: 6, Model: "none"}, pw6)

	st8 := a.statsLocked()
	if st8.JoinedRanks != 4 || st8.RemovedRanks != 4 {
		t.Fatalf("autoscale stats = %+v, want joined=4 removed=4", st8)
	}
	if st8.GrowNS <= 0 || st8.ShrinkNS <= 0 {
		t.Fatalf("autoscale stats did not time the collectives: %+v", st8)
	}
}

// TestPoolChurnRetireRebuild: a job that breaks its world gets the world
// retired on checkin, and the next checkout of that shape rebuilds cold.
func TestPoolChurnRetireRebuild(t *testing.T) {
	s := newTestServer(Config{P: 3})
	defer s.Close()
	key := poolKey{P: 3, Model: "none"}
	pw, hit, err := s.pool.checkout(key)
	if err != nil || hit {
		t.Fatalf("first checkout: hit=%v err=%v", hit, err)
	}
	execErr := pw.Execute(func(c *dhsort.Comm) error {
		if c.Rank() == 1 {
			return errors.New("boom")
		}
		return nil
	})
	if execErr == nil {
		t.Fatal("failing job reported no error")
	}
	if pw.Healthy() {
		t.Fatal("world healthy after a rank died")
	}
	s.pool.checkin(key, pw)
	if m := s.pool.stats(); m.Retired != 1 || m.Idle != 0 {
		t.Fatalf("broken world not retired: %+v", m)
	}

	// Demand rebuilds: the next checkout is a miss that builds a fresh,
	// healthy world.
	pw2, hit2, err := s.pool.checkout(key)
	if err != nil || hit2 {
		t.Fatalf("rebuild checkout: hit=%v err=%v", hit2, err)
	}
	if !pw2.Healthy() || pw2.Size() != 3 {
		t.Fatalf("rebuilt world unhealthy or wrong size %d", pw2.Size())
	}
	s.pool.checkin(key, pw2)
	if m := s.pool.stats(); m.Built != 2 || m.Misses != 2 || m.Idle != 1 {
		t.Fatalf("rebuild accounting = %+v, want built=2 misses=2 idle=1", m)
	}
}

// TestBrokenWorldFailsOnlyItsBatch: a world broken before a shared batch
// fails exactly that batch's jobs with the typed ErrWorldBroken, and the
// next batch runs clean on a rebuilt world.
func TestBrokenWorldFailsOnlyItsBatch(t *testing.T) {
	s := newTestServer(Config{P: 3})
	defer s.Close()
	key := poolKey{P: 3, Model: "none"}

	// Break a world and plant it on the shelf, bypassing checkin's health
	// screen — modelling a world whose poisoning the pool hasn't seen yet.
	pw, _, err := s.pool.checkout(key)
	if err != nil {
		t.Fatal(err)
	}
	_ = pw.Execute(func(c *dhsort.Comm) error {
		if c.Rank() == 0 {
			return errors.New("boom")
		}
		return nil
	})
	s.pool.mu.Lock()
	s.pool.idle[key] = append(s.pool.idle[key], pw)
	s.pool.mu.Unlock()

	batch := []*job{
		mkJob(t, s, "b-1", JobSpec{Keys: []uint64{3, 1, 2}, P: 3}),
		mkJob(t, s, "b-2", JobSpec{Keys: []uint64{9, 7, 8}, P: 3}),
	}
	s.runBatch(batch)
	for _, j := range batch {
		st, _ := s.Status(j.st.ID)
		if st.State != StateFailed {
			t.Fatalf("job %s on broken world: state=%s, want failed", j.st.ID, st.State)
		}
		if _, _, err := s.Result(j.st.ID); err == nil {
			t.Fatalf("job %s returned a result off a broken world", j.st.ID)
		}
	}
	// The failure is the typed world-broken error, surfaced verbatim.
	if st, _ := s.Status("b-1"); st.Error != dhsort.ErrWorldBroken.Error() {
		t.Fatalf("error = %q, want %q", st.Error, dhsort.ErrWorldBroken)
	}

	// Only that batch: the same jobs resubmitted run clean on a rebuilt
	// world.
	batch2 := []*job{
		mkJob(t, s, "b-3", JobSpec{Keys: []uint64{3, 1, 2}, P: 3}),
		mkJob(t, s, "b-4", JobSpec{Keys: []uint64{9, 7, 8}, P: 3}),
	}
	s.runBatch(batch2)
	for i, want := range [][]uint64{{1, 2, 3}, {7, 8, 9}} {
		out, st, err := s.Result(batch2[i].st.ID)
		if err != nil || !st.Verified {
			t.Fatalf("job %s after rebuild: err=%v verified=%v", batch2[i].st.ID, err, st.Verified)
		}
		if !equalU64(out, want) {
			t.Fatalf("job %s output = %v, want %v", batch2[i].st.ID, out, want)
		}
	}
}

// TestDrainRejectsAndQuiesces: after Drain, submissions bounce with a typed
// 503 + Retry-After while status stays queryable, and Quiesce reports the
// engine idle.
func TestDrainRejectsAndQuiesces(t *testing.T) {
	s := newTestServer(Config{P: 2})
	defer s.Close()
	j := mkJob(t, s, "d-1", JobSpec{Keys: []uint64{2, 1}, P: 2, NoBatch: true})
	s.runBatch([]*job{j})

	s.Drain()
	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	_, err := s.Submit("t", JobSpec{Keys: []uint64{5, 4}})
	var rej *Reject
	if !errors.As(err, &rej) || rej.HTTPStatus != 503 || rej.Reason != "draining" {
		t.Fatalf("submit while draining = %v, want 503 draining", err)
	}
	if rej.RetryAfter < 1 {
		t.Error("draining rejection carries no Retry-After")
	}
	// Admitted work stays visible.
	if st, ok := s.Status("d-1"); !ok || st.State != StateDone {
		t.Fatalf("status lost while draining: %+v ok=%v", st, ok)
	}
	if !s.Quiesce(time.Second) {
		t.Fatal("Quiesce timed out on an idle engine")
	}
	m := s.MetricsSnapshot()
	if !m.Draining || m.RejectedDraining != 1 {
		t.Fatalf("metrics = draining=%v rejected_draining=%d, want true/1", m.Draining, m.RejectedDraining)
	}
}

// TestAutoscaleEndToEnd drives the real sampling loop with hot thresholds:
// queued work grows the target (and the counters), idleness shrinks it back
// to the floor.
func TestAutoscaleEndToEnd(t *testing.T) {
	cfg := Config{P: 2, Workers: 1, QueueDepth: 64,
		QuotaRate: 1000, QuotaBurst: 1000,
		Autoscale: AutoscaleConfig{
			Enabled: true, MinP: 2, MaxP: 4, Step: 2,
			GrowQueue: 1, Sustain: 2,
			IdleTTL: 40 * time.Millisecond, Cooldown: 10 * time.Millisecond,
			Interval: 5 * time.Millisecond,
		}}
	s := New(cfg)
	defer s.Close()

	// Flood: enough queued jobs that the sampler sees sustained pressure.
	for i := 0; i < 24; i++ {
		if _, err := s.Submit("t", JobSpec{N: 20000, Dist: "zipf", Seed: uint64(i)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := s.MetricsSnapshot().Autoscale; st.Grows >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := s.MetricsSnapshot().Autoscale
	if st.Grows < 1 || st.TargetP <= 2 {
		t.Fatalf("no grow under flood: %+v", st)
	}

	// Idle: the queue empties, IdleTTL elapses, the target returns to MinP.
	for time.Now().Before(deadline) {
		st = s.MetricsSnapshot().Autoscale
		if st.Shrinks >= 1 && st.TargetP == 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Shrinks < 1 || st.TargetP != 2 {
		t.Fatalf("no shrink back to the floor when idle: %+v", st)
	}
	if st.ScaleDecisions == 0 || !st.Enabled {
		t.Fatalf("autoscale stats incomplete: %+v", st)
	}
}
