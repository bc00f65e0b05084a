package core

import (
	"sync"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
)

// runRebalance feeds each rank its slice of parts (which must already be
// globally ordered rank-major) through RebalanceOutput and returns the
// resulting partitions plus the per-rank recorders.
func runRebalance(t *testing.T, parts [][]uint64, cfg Config, model *simnet.CostModel) ([][]uint64, []*metrics.Recorder) {
	t.Helper()
	p := len(parts)
	w, err := comm.NewWorld(p, model)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]uint64, p)
	recs := make([]*metrics.Recorder, p)
	var mu sync.Mutex
	err = w.Run(func(c *comm.Comm) error {
		rc := cfg
		rec := metrics.ForComm(c)
		rc.Recorder = rec
		out := RebalanceOutput(c, append([]uint64(nil), parts[c.Rank()]...), keys.Uint64{}, rc)
		mu.Lock()
		outs[c.Rank()] = out
		recs[c.Rank()] = rec
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return outs, recs
}

func checkOrderAndContent(t *testing.T, parts, outs [][]uint64) {
	t.Helper()
	var want, got []uint64
	for _, s := range parts {
		want = append(want, s...)
	}
	for _, s := range outs {
		got = append(got, s...)
	}
	if len(got) != len(want) {
		t.Fatalf("element count changed: %d -> %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order or content changed at global index %d: %d != %d", i, got[i], want[i])
		}
	}
}

func seq(lo, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(lo + i)
	}
	return out
}

// All elements on rank 0 must diffuse to a balanced partition, preserving
// the global order exactly, and the pass must be recorded in metrics.
func TestRebalanceAllOnOneRank(t *testing.T) {
	parts := [][]uint64{seq(0, 800), {}, {}, {}}
	outs, recs := runRebalance(t, parts, Config{}, nil)
	for r, o := range outs {
		if len(o) != 200 {
			t.Fatalf("rank %d holds %d elements, want 200", r, len(o))
		}
	}
	checkOrderAndContent(t, parts, outs)
	s := metrics.Summarize(recs)
	if s.Rebalances != 1 || s.RebalanceRounds == 0 || s.RebalanceBytes == 0 {
		t.Fatalf("rebalance not recorded: %+v", s)
	}
}

// Surplus in the middle of the line sheds both ways.
func TestRebalanceMiddleSurplus(t *testing.T) {
	parts := [][]uint64{seq(0, 10), seq(10, 10), seq(20, 580), seq(600, 0), seq(600, 0)}
	outs, recs := runRebalance(t, parts, Config{}, nil)
	for r, o := range outs {
		if len(o) != 120 {
			t.Fatalf("rank %d holds %d elements, want 120", r, len(o))
		}
	}
	checkOrderAndContent(t, parts, outs)
	if s := metrics.Summarize(recs); s.Rebalances != 1 {
		t.Fatalf("expected one recorded pass, got %+v", s)
	}
}

// A partition already within the Epsilon bound is returned untouched and
// records nothing; a huge ε bounds nothing rather than overflowing into the
// perfect-balance bound.
func TestRebalanceWithinBoundIsNoop(t *testing.T) {
	for _, tc := range []struct {
		eps   float64
		parts [][]uint64
	}{
		{0.5, [][]uint64{seq(0, 100), seq(100, 110), seq(210, 95), seq(305, 100)}},
		{1e300, [][]uint64{seq(0, 400), {}, seq(400, 5), {}}},
	} {
		outs, recs := runRebalance(t, tc.parts, Config{Epsilon: tc.eps}, nil)
		for r := range tc.parts {
			if len(outs[r]) != len(tc.parts[r]) {
				t.Fatalf("ε = %g: rank %d size changed %d -> %d under the bound", tc.eps, r, len(tc.parts[r]), len(outs[r]))
			}
		}
		checkOrderAndContent(t, tc.parts, outs)
		if s := metrics.Summarize(recs); s.Rebalances != 0 || s.RebalanceBytes != 0 {
			t.Fatalf("ε = %g: no-op pass recorded activity: %+v", tc.eps, s)
		}
	}
}

// Under a cost model the pass advances the virtual clock and the recorded
// time is positive.
func TestRebalancePricedOnVirtualClock(t *testing.T) {
	parts := [][]uint64{seq(0, 600), {}, {}}
	_, recs := runRebalance(t, parts, Config{}, simnet.SuperMUC(4, true))
	s := metrics.Summarize(recs)
	if s.RebalanceNS <= 0 {
		t.Fatalf("rebalance time not priced: %+v", s)
	}
}

// The rebalance is deterministic: two identical runs produce identical
// partitions and identical recorded volumes.
func TestRebalanceDeterministic(t *testing.T) {
	parts := [][]uint64{seq(0, 5), seq(5, 700), {}, seq(705, 20), {}, {}}
	a, ra := runRebalance(t, parts, Config{}, simnet.SuperMUC(4, true))
	b, rb := runRebalance(t, parts, Config{}, simnet.SuperMUC(4, true))
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatalf("rank %d: non-deterministic sizes %d vs %d", r, len(a[r]), len(b[r]))
		}
	}
	sa, sb := metrics.Summarize(ra), metrics.Summarize(rb)
	if sa.RebalanceBytes != sb.RebalanceBytes || sa.RebalanceNS != sb.RebalanceNS {
		t.Fatalf("non-deterministic accounting: %+v vs %+v", sa, sb)
	}
}
