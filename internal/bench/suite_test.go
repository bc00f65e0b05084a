package bench

import (
	"bytes"
	"slices"
	"testing"

	"dhsort/internal/core"
	"dhsort/internal/fault"
	"dhsort/internal/metrics"
)

// TestSuiteSmokeCoversAllAlgorithms runs the CI smoke grid and checks the
// acceptance contract of the metrics subsystem: every algorithm emits a
// record with per-superstep times and per-link-class message/byte
// breakdowns, and the document round-trips through the versioned codec.
func TestSuiteSmokeCoversAllAlgorithms(t *testing.T) {
	doc, err := RunSuite(Options{Smoke: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"dhsort": false, "dhsort-fused": false, "dhsort-rma": false, "dhsort-p8": false,
		"dhsort-spill": false,
		"hss":          false, "samplesort": false, "hyksort": false, "bitonic": false,
	}
	byAlg := make(map[string]metrics.Record)
	for _, r := range doc.Records {
		byAlg[r.Algorithm] = r
	}
	for _, r := range doc.Records {
		if _, ok := want[r.Algorithm]; !ok {
			t.Errorf("unexpected algorithm %q", r.Algorithm)
			continue
		}
		want[r.Algorithm] = true
		if r.Makespan.MeanNS <= 0 {
			t.Errorf("%s: non-positive makespan %d", r.Key(), r.Makespan.MeanNS)
		}
		if len(r.Phases) == 0 {
			t.Errorf("%s: no phase breakdown", r.Key())
		}
		var phaseTime, linkMsgs int64
		for name, ph := range r.Phases {
			phaseTime += ph.MeanNS
			for _, l := range ph.Links {
				linkMsgs += l.Messages
				if l.Bytes < 0 || l.Messages < 0 {
					t.Errorf("%s: negative link tally in phase %s", r.Key(), name)
				}
			}
		}
		if phaseTime <= 0 {
			t.Errorf("%s: phase times sum to %d", r.Key(), phaseTime)
		}
		if linkMsgs <= 0 {
			t.Errorf("%s: no per-phase link traffic recorded", r.Key())
		}
		if len(r.Totals.Links) == 0 {
			t.Errorf("%s: no link totals", r.Key())
		}
		if r.Imbalance.Time < 1 {
			t.Errorf("%s: time imbalance %v < 1", r.Key(), r.Imbalance.Time)
		}
		// dhsort variants and hss guarantee perfect partitioning here.
		perfect := r.Algorithm == "dhsort" || r.Algorithm == "dhsort-fused" ||
			r.Algorithm == "dhsort-rma" || r.Algorithm == "dhsort-spill" ||
			r.Algorithm == "hss"
		if perfect && r.Imbalance.Output != 1 {
			t.Errorf("%s: output imbalance %v, want 1.0 (perfect partitioning)", r.Key(), r.Imbalance.Output)
		}
		if r.Algorithm == "dhsort" && r.Iterations == 0 {
			t.Errorf("%s: histogramming iterations not recorded", r.Key())
		}
	}
	for alg, seen := range want {
		if !seen {
			t.Errorf("algorithm %s missing from suite", alg)
		}
	}

	// The exchange-backend contract on the smoke grid (one node, PGAS
	// pricing): records name the exchange that actually ran, the one-sided
	// record carries put/notify traffic, and the RMA-put exchange's
	// virtual makespan does not exceed the two-sided ALLTOALLV dhsort's.
	if r, ok := byAlg["dhsort-rma"]; ok {
		if r.Exchange != "rma-put" {
			t.Errorf("dhsort-rma records exchange %q, want rma-put", r.Exchange)
		}
		var puts, notifies int64
		for _, l := range r.Totals.Links {
			puts += l.Puts
			notifies += l.Notifies
		}
		if puts == 0 || notifies == 0 {
			t.Errorf("dhsort-rma recorded %d puts, %d notifies; want both > 0", puts, notifies)
		}
		if base, ok := byAlg["dhsort"]; ok && r.Makespan.MeanNS > base.Makespan.MeanNS {
			t.Errorf("rma-put makespan %dns exceeds two-sided dhsort %dns on the intra-node smoke grid",
				r.Makespan.MeanNS, base.Makespan.MeanNS)
		}
	}
	if r, ok := byAlg["dhsort-fused"]; ok && r.Exchange != "fused-1factor" {
		t.Errorf("dhsort-fused records exchange %q, want fused-1factor", r.Exchange)
	}

	// The out-of-core record must carry its budget and spill counters and
	// use the fused 1-factor exchange the spilled path pins.
	if r, ok := byAlg["dhsort-spill"]; ok {
		if r.Exchange != "fused-1factor" {
			t.Errorf("dhsort-spill records exchange %q, want fused-1factor", r.Exchange)
		}
		if r.MemBudget == 0 || r.SpilledRuns == 0 || r.SpillBytes == 0 {
			t.Errorf("dhsort-spill record missing spill fields: budget=%d runs=%d bytes=%d",
				r.MemBudget, r.SpilledRuns, r.SpillBytes)
		}
	}

	// The emitted document must round-trip and self-compare clean.
	var buf bytes.Buffer
	if err := metrics.Encode(&buf, doc); err != nil {
		t.Fatal(err)
	}
	back, err := metrics.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := metrics.Compare(back, back, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressed() {
		t.Error("self-comparison must not regress")
	}
}

// TestSuiteDeterministic pins the property the regression gate relies on:
// two suite runs with the same seed produce identical documents.
func TestSuiteDeterministic(t *testing.T) {
	a, err := RunSuite(Options{Smoke: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSuite(Options{Smoke: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	if err := metrics.Encode(&ab, a); err != nil {
		t.Fatal(err)
	}
	if err := metrics.Encode(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Error("suite output is not deterministic for a fixed seed")
	}
}

// TestSuiteUnderDeathSchedule: a permanent-death schedule keeps every
// configuration that can shrink — its sorter runs core's pipeline and its
// settings validate under shrink recovery — and no other.  dhsort-spill
// stays out: a spilled sort shrinks only with a shared store.
func TestSuiteUnderDeathSchedule(t *testing.T) {
	plan, err := fault.Parse("die=3@1,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := RunSuite(Options{Smoke: true, Seed: 42, Fault: plan, Recovery: core.RecoveryShrink})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range doc.Records {
		got = append(got, r.Algorithm)
		if r.Recovery != core.RecoveryShrink || r.Fault == nil || r.Fault.Survivors != r.P-1 {
			t.Errorf("%s: recovery %q, fault %+v; want shrink to %d survivors", r.Key(), r.Recovery, r.Fault, r.P-1)
		}
	}
	slices.Sort(got)
	want := []string{"dhsort", "dhsort-fused", "dhsort-p8", "dhsort-rma", "hss", "samplesort"}
	if !slices.Equal(got, want) {
		t.Errorf("records %v, want %v", got, want)
	}
	if _, err := RunSuite(Options{Smoke: true, Fault: plan}); err == nil {
		t.Error("a death schedule without shrink recovery must be refused")
	}
}
