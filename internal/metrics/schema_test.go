package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

const goldenPath = "testdata/golden_v1.json"

// TestGoldenRoundTrip pins the on-disk schema: the checked-in golden file
// must decode, and re-encoding the decoded document must reproduce it byte
// for byte.  Any schema change shows up as a golden diff and forces a
// deliberate decision (and, for incompatible changes, a version bump).
// goldenDoc is the baseline plus one record exercising the optional
// one-sided fields (exchange, puts/put_bytes/notifies) and the kernel
// fields (local_sort_kernel, threads), so the golden file pins both
// layouts: records without RMA traffic or kernel dispatch keep the
// original byte layout (omitempty), records with them round-trip the new
// counters.
func goldenDoc() Document {
	d := baselineDoc(1.0)
	d.Records = append(d.Records, Record{
		Algorithm:       "dhsort-rma",
		P:               16,
		PerRank:         4096,
		Workload:        "uniform",
		Reps:            3,
		Makespan:        DurationStat{MeanNS: 9_000_000, MinNS: 8_500_000, MaxNS: 9_500_000},
		Imbalance:       Imbalance{Time: 1.01, Output: 1},
		Exchange:        "rma-put",
		LocalSortKernel: "radix",
		Threads:         2,
		Phases: map[string]PhaseStat{
			"Exchange": {MeanNS: 2_500_000, MaxNS: 2_800_000,
				Links: map[string]LinkTally{"same-numa": {Puts: 240, PutBytes: 2_000_000, Notifies: 240}}},
		},
		Totals: Totals{
			Links: map[string]LinkTally{
				"network":   {Messages: 120, Bytes: 48_000},
				"same-numa": {Puts: 240, PutBytes: 2_000_000, Notifies: 240},
			},
			ExchangedBytes: 2_000_000,
		},
		Iterations: 30,
	})
	return d
}

func TestGoldenRoundTrip(t *testing.T) {
	if *updateGolden {
		var buf bytes.Buffer
		if err := Encode(&buf, goldenDoc()); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to regenerate): %v", err)
	}
	doc, err := Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := Encode(&got, doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("golden round-trip mismatch:\n--- golden\n%s\n--- re-encoded\n%s", want, got.Bytes())
	}
}

// TestMarshalUnmarshalRoundTrip checks the in-memory round-trip through
// encoding/json preserves every field of a fully populated document.
func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	doc := baselineDoc(1.0)
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back Document
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Errorf("marshal/unmarshal/marshal not stable:\n%s\nvs\n%s", b, b2)
	}
	if back.Records[0].Key() != doc.Records[0].Key() {
		t.Errorf("key changed across round-trip: %s vs %s", back.Records[0].Key(), doc.Records[0].Key())
	}
}

func TestDecodeRejectsUnknownSchema(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte(`{"schema":"something/v9"}`))); err == nil {
		t.Fatal("unknown schema must be rejected")
	}
}

func TestEncodeSortsRecords(t *testing.T) {
	doc := Document{Schema: SchemaVersion, Records: []Record{
		{Algorithm: "hss", P: 16, PerRank: 1, Workload: "uniform"},
		{Algorithm: "dhsort", P: 16, PerRank: 1, Workload: "uniform"},
	}}
	var buf bytes.Buffer
	if err := Encode(&buf, doc); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Records[0].Algorithm != "dhsort" {
		t.Errorf("records not sorted by key: first is %s", back.Records[0].Algorithm)
	}
}

func TestNewDurationStat(t *testing.T) {
	s := NewDurationStat([]time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond})
	if s.MeanNS != 2_000_000 || s.MinNS != 1_000_000 || s.MaxNS != 3_000_000 {
		t.Errorf("stat = %+v", s)
	}
	if (NewDurationStat(nil) != DurationStat{}) {
		t.Error("empty reps must yield zero stat")
	}
}
