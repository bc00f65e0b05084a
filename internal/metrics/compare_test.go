package metrics

import (
	"strings"
	"testing"
)

// baselineDoc builds a small but fully populated document for the gate
// tests; scale multiplies every time metric (1.0 = identical to baseline).
func baselineDoc(timeScale float64) Document {
	ns := func(base int64) int64 { return int64(float64(base) * timeScale) }
	rec := Record{
		Algorithm: "dhsort",
		P:         16,
		PerRank:   4096,
		Workload:  "uniform",
		Reps:      3,
		Makespan:  DurationStat{MeanNS: ns(10_000_000), MinNS: ns(9_000_000), MaxNS: ns(11_000_000)},
		Imbalance: Imbalance{Time: 1.02, Output: 1},
		Phases: map[string]PhaseStat{
			"LocalSort": {MeanNS: ns(4_000_000), MaxNS: ns(4_500_000)},
			"Histogram": {MeanNS: ns(2_000_000), MaxNS: ns(2_500_000),
				Links: map[string]LinkTally{"network": {Messages: 120, Bytes: 48_000}}},
			"Exchange": {MeanNS: ns(3_000_000), MaxNS: ns(3_500_000),
				Links: map[string]LinkTally{"network": {Messages: 240, Bytes: 2_000_000}}},
			"Merge": {MeanNS: ns(1_000_000), MaxNS: ns(1_200_000)},
		},
		Totals: Totals{
			Links:          map[string]LinkTally{"network": {Messages: 360, Bytes: 2_048_000}},
			ExchangedBytes: 2_000_000,
		},
		Iterations: 30,
	}
	return Document{Schema: SchemaVersion, Config: RunConfig{Suite: "full", Model: "supermuc-pgas", RanksPerNode: 16, Reps: 3, Seed: 42}, Records: []Record{rec}}
}

func TestCompareTripsOnTwentyPercentSlowdown(t *testing.T) {
	old := baselineDoc(1.0)
	slow := baselineDoc(1.2)
	res, err := Compare(old, slow, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Regressed() {
		t.Fatal("20% slowdown must regress the 10% gate")
	}
	var hit []string
	for _, d := range res.Deltas {
		if d.Regressed {
			hit = append(hit, d.Metric)
		}
	}
	joined := strings.Join(hit, " ")
	for _, want := range []string{"makespan.mean_ns", "phase.LocalSort.mean_ns", "phase.Exchange.mean_ns"} {
		if !strings.Contains(joined, want) {
			t.Errorf("expected %s among regressed metrics, got %v", want, hit)
		}
	}
	// Communication volume did not change, so it must not regress.
	for _, d := range res.Deltas {
		if strings.HasPrefix(d.Metric, "totals.") && d.Regressed {
			t.Errorf("unchanged volume metric %s flagged as regression", d.Metric)
		}
	}
}

func TestComparePassesOnFivePercentSlowdown(t *testing.T) {
	old := baselineDoc(1.0)
	mild := baselineDoc(1.05)
	res, err := Compare(old, mild, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressed() {
		var hit []string
		for _, d := range res.Deltas {
			if d.Regressed {
				hit = append(hit, d.Metric)
			}
		}
		t.Fatalf("5%% slowdown must pass the 10%% gate, regressed: %v", hit)
	}
}

func TestCompareFlagsVolumeRegression(t *testing.T) {
	old := baselineDoc(1.0)
	fat := baselineDoc(1.0)
	fat.Records[0].Totals.Links = map[string]LinkTally{"network": {Messages: 360, Bytes: 4_096_000}}
	res, err := Compare(old, fat, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Regressed() {
		t.Fatal("2x network bytes must regress")
	}
}

// TestCompareIgnoresNewPutFields: a baseline written before the one-sided
// counters existed (or before a record used the RMA exchange) has zero puts;
// a new run that now reports put traffic must NOT trip the gate — the
// optional fields only gate once the baseline itself carries them.
func TestCompareIgnoresNewPutFields(t *testing.T) {
	old := baselineDoc(1.0)
	rma := baselineDoc(1.0)
	links := rma.Records[0].Totals.Links
	links["same-numa"] = LinkTally{Puts: 500, PutBytes: 4_000_000, Notifies: 500}
	res, err := Compare(old, rma, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Deltas {
		if d.Metric == "totals.puts" || d.Metric == "totals.put_bytes" {
			t.Errorf("put metric %s tracked against a baseline without puts", d.Metric)
		}
	}
	if res.Regressed() {
		t.Fatal("new optional put fields must not regress an old baseline")
	}
}

// TestCompareFlagsPutRegression: once the baseline has one-sided traffic,
// growth in it gates like any other volume metric.
func TestCompareFlagsPutRegression(t *testing.T) {
	old := baselineDoc(1.0)
	old.Records[0].Totals.Links["same-numa"] = LinkTally{Puts: 500, PutBytes: 4_000_000, Notifies: 500}
	fat := baselineDoc(1.0)
	fat.Records[0].Totals.Links["same-numa"] = LinkTally{Puts: 1500, PutBytes: 12_000_000, Notifies: 1500}
	res, err := Compare(old, fat, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Regressed() {
		t.Fatal("3x put volume must regress once the baseline tracks puts")
	}
}

func TestCompareMissingRecordFails(t *testing.T) {
	old := baselineDoc(1.0)
	res, err := Compare(old, Document{Schema: SchemaVersion}, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Regressed() || len(res.Missing) != 1 {
		t.Fatalf("missing record must fail the gate: %+v", res.Missing)
	}
}

func TestCompareIgnoresBelowFloorNoise(t *testing.T) {
	old := baselineDoc(1.0)
	noisy := baselineDoc(1.0)
	// A 3x wobble on a 20µs phase is below the 100µs floor: not a
	// regression.
	old.Records[0].Phases["Other"] = PhaseStat{MeanNS: 20_000}
	noisy.Records[0].Phases["Other"] = PhaseStat{MeanNS: 60_000}
	res, err := Compare(old, noisy, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressed() {
		t.Fatal("sub-floor wobble must not trip the gate")
	}
}

func TestCompareRejectsSchemaMismatch(t *testing.T) {
	old := baselineDoc(1.0)
	bad := baselineDoc(1.0)
	bad.Schema = "dhsort-bench/v0"
	if _, err := Compare(old, bad, 0.10); err == nil {
		t.Fatal("schema mismatch must error")
	}
}

func TestReportMentionsVerdict(t *testing.T) {
	res, err := Compare(baselineDoc(1.0), baselineDoc(1.2), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Report(&sb)
	if !strings.Contains(sb.String(), "REGRESS") || !strings.Contains(sb.String(), "compared") {
		t.Errorf("report missing expected lines:\n%s", sb.String())
	}
}
