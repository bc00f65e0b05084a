package comm

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"dhsort/internal/simnet"
)

// TestRankLifecycle pins the one classification every runner shares
// (runRank) and what each runner does with it.  The last rank of a World.Run
// or a PersistentWorld job, or the joiner of a World.Spawn, advances its
// clock by 1ms and then ends each way; the table says per runner whether
// that aborts the world and whether the rank's clock is recorded.  Under an
// abort the other rank parks in a barrier and must unwind as collateral,
// recording nothing; a persistent world survives only a clean return.
func TestRankLifecycle(t *testing.T) {
	boom := errors.New("boom")
	type verdict struct{ aborts, records bool }
	ends := []struct {
		name            string
		act             func(c *Comm) error
		is              func(error) bool
		run, spawn, job verdict
	}{
		{"returned", func(*Comm) error { return nil },
			func(err error) bool { return err == nil },
			verdict{false, true}, verdict{false, true}, verdict{false, true}},
		{"errored", func(*Comm) error { return boom },
			func(err error) bool { return errors.Is(err, boom) },
			verdict{true, true}, verdict{false, false}, verdict{true, false}},
		{"failed", func(c *Comm) error { panic(c.DeadRankFailure(0, 1, "lifecycle")) },
			func(err error) bool { return errors.Is(err, ErrRankDead) },
			verdict{true, false}, verdict{false, false}, verdict{true, false}},
		{"panicked", func(*Comm) error { panic("kaput") },
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "panicked: kaput") },
			verdict{true, false}, verdict{true, false}, verdict{true, false}},
		{"panicked error", func(*Comm) error { panic(boom) },
			func(err error) bool { return errors.Is(err, boom) && strings.Contains(err.Error(), "panicked: boom") },
			verdict{true, false}, verdict{true, false}, verdict{true, false}},
		{"died", func(c *Comm) error { c.Die(); return nil },
			func(err error) bool { return err == nil },
			verdict{false, true}, verdict{false, true}, verdict{false, true}},
	}
	model := simnet.SuperMUC(2, true)
	aborted := func(w *World) bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.aborted
	}
	// check asserts one runner's verdict on world w, whose acting rank is
	// world rank r (its peer, if any, is world rank 0).
	check := func(runner, end string, w *World, r int, err error, is func(error) bool, v verdict) {
		t.Helper()
		if !is(err) {
			t.Errorf("%s, %s: error %v", runner, end, err)
		}
		if got := aborted(w); got != v.aborts {
			t.Errorf("%s, %s: world aborted = %v, want %v", runner, end, got, v.aborts)
		}
		times := w.RankTimes()
		want := time.Duration(0)
		if v.records {
			want = time.Millisecond
		}
		if times[r] != want {
			t.Errorf("%s, %s: rank %d recorded %v, want %v", runner, end, r, times[r], want)
		}
		if v.aborts && r > 0 && times[0] != 0 {
			t.Errorf("%s, %s: collateral rank 0 recorded %v", runner, end, times[0])
		}
	}
	// job is the two ranks' function: the last acts, the other parks in a
	// barrier when the end aborts the world and returns otherwise.
	job := func(act func(c *Comm) error, aborts bool) func(c *Comm) error {
		return func(c *Comm) error {
			if c.Rank() == c.Size()-1 {
				c.clock.Advance(time.Millisecond)
				return act(c)
			}
			if aborts {
				Barrier(c)
			}
			return nil
		}
	}
	base := runtime.NumGoroutine()
	for _, e := range ends {
		w, _ := NewWorld(2, model)
		err := w.Run(job(e.act, e.run.aborts))
		if err != nil && !strings.Contains(err.Error(), "comm: rank 1: ") {
			t.Errorf("Run, %s: error %q does not name rank 1", e.name, err)
		}
		check("Run", e.name, w, 1, err, e.is, e.run)

		w, _ = NewWorld(1, model)
		s, serr := w.Spawn(1, job(e.act, false))
		if serr != nil {
			t.Fatal(serr)
		}
		err = s.Wait()
		if err != nil && !strings.Contains(err.Error(), "comm: joiner rank 1: ") {
			t.Errorf("Spawn, %s: error %q does not name joiner rank 1", e.name, err)
		}
		check("Spawn", e.name, w, 1, err, e.is, e.spawn)

		// A death leaves a fault-free persistent world's survivors parked in
		// the quiesce barrier for good, so that end runs on one rank.
		size := 2
		if e.name == "died" {
			size = 1
		}
		pw, perr := NewPersistentWorld(size, model)
		if perr != nil {
			t.Fatal(perr)
		}
		err = pw.Execute(job(e.act, e.job.aborts))
		check("Execute", e.name, pw.w, size-1, err, e.is, e.job)
		if healthy, want := pw.Healthy(), e.name == "returned"; healthy != want {
			t.Errorf("Execute, %s: Healthy = %v, want %v", e.name, healthy, want)
		}
		pw.Close()
	}
	waitGoroutines(t, base)
}
