package metrics

import (
	"testing"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/simnet"
)

// TestRecorderAttributesTimeAndTraffic drives a recorder by hand: clock
// advances and stats mutations between Enter calls must land in the phase
// that was active when they happened.
func TestRecorderAttributesTimeAndTraffic(t *testing.T) {
	model := simnet.SuperMUC(16, true)
	clock := simnet.NewClock(model)
	var st comm.Stats
	rec := NewRecorder(clock, &st)

	rec.Enter(LocalSort)
	clock.Advance(10 * time.Millisecond)

	rec.Enter(Histogram)
	clock.Advance(2 * time.Millisecond)
	st.Links[simnet.Network].Messages += 5
	st.Links[simnet.Network].Bytes += 500
	rec.AddIteration()
	rec.AddIteration()

	rec.Enter(Exchange)
	clock.Advance(7 * time.Millisecond)
	st.Links[simnet.SameNUMA].Messages += 3
	st.Links[simnet.SameNUMA].Bytes += 4096
	rec.AddExchangedBytes(4096)

	rec.Enter(Merge)
	clock.Advance(4 * time.Millisecond)
	// Re-entering a phase accumulates into it.
	rec.Enter(Histogram)
	clock.Advance(time.Millisecond)
	rec.Finish()
	rec.SetElements(100)

	want := map[Phase]time.Duration{
		LocalSort: 10 * time.Millisecond,
		Histogram: 3 * time.Millisecond,
		Exchange:  7 * time.Millisecond,
		Merge:     4 * time.Millisecond,
		Other:     0,
	}
	for p, d := range want {
		if rec.Times[p] != d {
			t.Errorf("phase %v time = %v, want %v", p, rec.Times[p], d)
		}
	}
	if got := rec.Links[Histogram][simnet.Network]; got != (LinkTally{Messages: 5, Bytes: 500}) {
		t.Errorf("Histogram network tally = %+v", got)
	}
	if got := rec.Links[Exchange][simnet.SameNUMA]; got != (LinkTally{Messages: 3, Bytes: 4096}) {
		t.Errorf("Exchange same-numa tally = %+v", got)
	}
	if got := rec.Links[Exchange][simnet.Network]; got != (LinkTally{}) {
		t.Errorf("Exchange network tally = %+v, want zero", got)
	}
	if rec.Iterations != 2 {
		t.Errorf("Iterations = %d, want 2", rec.Iterations)
	}
	if rec.ExchangedBytes != 4096 {
		t.Errorf("ExchangedBytes = %d, want 4096", rec.ExchangedBytes)
	}
}

// TestNilRecorderIsSafe exercises every method on a nil recorder.
func TestNilRecorderIsSafe(t *testing.T) {
	var rec *Recorder
	rec.Enter(LocalSort)
	rec.Finish()
	rec.AddIteration()
	rec.AddExchangedBytes(1)
	rec.SetElements(2)
}

// TestSummarizeImbalance checks the cross-rank aggregation: mean/max phase
// times, link totals, and both imbalance factors.
func TestSummarizeImbalance(t *testing.T) {
	model := simnet.SuperMUC(16, true)
	mk := func(sortMS int, out int, netBytes int64) *Recorder {
		clock := simnet.NewClock(model)
		var st comm.Stats
		r := NewRecorder(clock, &st)
		r.Enter(LocalSort)
		clock.Advance(time.Duration(sortMS) * time.Millisecond)
		st.Links[simnet.Network].Messages++
		st.Links[simnet.Network].Bytes += netBytes
		r.Finish()
		r.SetElements(out)
		return r
	}
	recs := []*Recorder{mk(10, 100, 1000), mk(30, 300, 3000), nil, mk(20, 200, 2000)}
	s := Summarize(recs)
	if s.Ranks != 3 {
		t.Fatalf("Ranks = %d, want 3", s.Ranks)
	}
	if s.Times[LocalSort] != 20*time.Millisecond {
		t.Errorf("mean LocalSort = %v, want 20ms", s.Times[LocalSort])
	}
	if s.MaxTimes[LocalSort] != 30*time.Millisecond {
		t.Errorf("max LocalSort = %v, want 30ms", s.MaxTimes[LocalSort])
	}
	if got := s.TotalLinks()[simnet.Network]; got != (LinkTally{Messages: 3, Bytes: 6000}) {
		t.Errorf("network totals = %+v", got)
	}
	// max/mean: time 30/20 = 1.5, output 300/200 = 1.5.
	if s.TimeImbalance < 1.49 || s.TimeImbalance > 1.51 {
		t.Errorf("TimeImbalance = %v, want 1.5", s.TimeImbalance)
	}
	if s.OutputImbalance < 1.49 || s.OutputImbalance > 1.51 {
		t.Errorf("OutputImbalance = %v, want 1.5", s.OutputImbalance)
	}
	if f := s.Fraction(LocalSort); f < 0.99 {
		t.Errorf("Fraction(LocalSort) = %v, want ~1", f)
	}
	if empty := Summarize(nil); empty.Total() != 0 || empty.Fraction(LocalSort) != 0 {
		t.Error("empty summary must be zero")
	}
}

func TestPhaseString(t *testing.T) {
	names := map[Phase]string{
		LocalSort: "LocalSort", Histogram: "Histogram", Exchange: "Exchange",
		Merge: "Merge", Other: "Other", Phase(42): "Unknown",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
}
