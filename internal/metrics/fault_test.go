package metrics

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"dhsort/internal/comm"
)

// faultStat builds a fully populated fault block scaled by f, with the
// gated time metrics comfortably above the compare noise floors.
func faultStat(f float64) *FaultStat {
	ns := func(base int64) int64 { return int64(float64(base) * f) }
	return &FaultStat{FaultTally: FaultTally{
		FaultCounters: comm.FaultCounters{
			Drops: 40, Dups: 12, Delays: 80, Reorders: 9,
			Retries: 40, RetryNS: ns(2_000_000), Dedup: 12,
		},
		Checkpoints: 48, CheckpointBytes: 1 << 20,
		Recoveries: 2, RecoveryNS: ns(5_000_000),
		Stalls: 1, StallNS: 200_000,
	}}
}

// TestFaultFreeDocumentOmitsFaultKeys pins the additive-schema guarantee:
// a fault-free document serializes without any "fault" key, in the config
// or in any record, so pre-existing baselines stay byte-identical.
func TestFaultFreeDocumentOmitsFaultKeys(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, baselineDoc(1.0)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"fault"`) {
		t.Error("fault-free document carries a fault key")
	}

	// The Summary→Record path must agree: no fault activity, nil pointer.
	rec := NewRecord("dhsort", 16, 4096, "uniform", []time.Duration{time.Millisecond}, Summary{})
	if rec.Fault != nil {
		t.Errorf("fault-free summary produced a fault block: %+v", rec.Fault)
	}
}

// TestFaultRecordRoundTrip pins the serialized fault block: a record with
// fault activity encodes the block, decodes back equal, and a summary with
// fault tallies materializes the pointer.
func TestFaultRecordRoundTrip(t *testing.T) {
	doc := baselineDoc(1.0)
	doc.Config.Fault = "drop=0.01,seed=7"
	doc.Records[0].Fault = faultStat(1.0)

	var buf bytes.Buffer
	if err := Encode(&buf, doc); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"fault"`) {
		t.Fatal("fault block not serialized")
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Config.Fault != doc.Config.Fault {
		t.Errorf("config fault spec round-tripped to %q", back.Config.Fault)
	}
	if !reflect.DeepEqual(back.Records[0].Fault, doc.Records[0].Fault) {
		t.Errorf("fault block round-tripped to %+v", back.Records[0].Fault)
	}

	var s Summary
	s.Fault = FaultTally{FaultCounters: comm.FaultCounters{Retries: 40, RetryNS: 2_000_000}, Recoveries: 2}
	rec := NewRecord("dhsort", 16, 4096, "uniform", []time.Duration{time.Millisecond}, s)
	if rec.Fault == nil || rec.Fault.Retries != 40 || rec.Fault.Recoveries != 2 {
		t.Errorf("summary fault tallies lost: %+v", rec.Fault)
	}
}

// TestCompareIgnoresFaultWithoutBaseline pins the gate's additive rule: a
// baseline written before the fault fields existed (or from a fault-free
// run) must never be gated on them, even when the new document carries a
// large fault block.
func TestCompareIgnoresFaultWithoutBaseline(t *testing.T) {
	old := baselineDoc(1.0)
	new := baselineDoc(1.0)
	new.Records[0].Fault = faultStat(10.0)
	res, err := Compare(old, new, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Deltas {
		if strings.HasPrefix(d.Metric, "fault.") {
			t.Errorf("baseline without a fault block produced delta %s", d.Metric)
		}
	}
	if res.Regressed() {
		t.Error("additive fault block tripped the gate on an old baseline")
	}
}

// TestCompareGatesFaultTime pins the other side: once both documents carry
// the block, inflated retry/recovery time is a regression like any other
// tracked time metric.
func TestCompareGatesFaultTime(t *testing.T) {
	old := baselineDoc(1.0)
	old.Records[0].Fault = faultStat(1.0)

	same := baselineDoc(1.0)
	same.Records[0].Fault = faultStat(1.0)
	res, err := Compare(old, same, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressed() {
		t.Error("identical fault blocks tripped the gate")
	}

	slow := baselineDoc(1.0)
	slow.Records[0].Fault = faultStat(1.5)
	res, err = Compare(old, slow, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	var hit []string
	for _, d := range res.Deltas {
		if d.Regressed {
			hit = append(hit, d.Metric)
		}
	}
	joined := strings.Join(hit, " ")
	for _, want := range []string{"fault.retry_ns", "fault.recovery_ns"} {
		if !strings.Contains(joined, want) {
			t.Errorf("expected %s among regressed metrics, got %v", want, hit)
		}
	}
}
