package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dhsort/internal/store"
	"dhsort/internal/xmath"
)

// The verification of every op: a sorted output must hold exactly the input
// multiset.  Each corruption below is one a broken exchange could produce.
func TestChecksumCatchesCorruption(t *testing.T) {
	in := []uint64{5, 0, 9, 3, 3, 7, 1 << 63, 42}
	want := checksumOf(in, uint64Image)
	sorted := slices.Clone(in)
	slices.Sort(sorted)
	if err := verifySorted(sorted, uint64Image, want); err != nil {
		t.Fatalf("a correct output failed verification: %v", err)
	}

	dropped := sorted[1:] // loses the key 0: sum and xor are blind, the count is not
	if err := verifySorted(dropped, uint64Image, want); err == nil || !strings.Contains(err.Error(), "element count") {
		t.Errorf("dropped key not caught by the count: %v", err)
	}

	dup := slices.Clone(sorted) // 7 duplicated over a dropped 9: same count
	dup[slices.Index(dup, 9)] = 7
	slices.Sort(dup)
	if err := verifySorted(dup, uint64Image, want); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("duplicated key not caught by the checksum: %v", err)
	}

	// Two compensating errors keep the sum (+1, -1) but not the xor.
	comp := slices.Clone(sorted)
	comp[slices.Index(comp, 5)] = 6
	comp[slices.Index(comp, 9)] = 8
	if err := verifySorted(comp, uint64Image, want); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("compensating errors not caught by the xor: %v", err)
	}

	swapped := slices.Clone(sorted) // same multiset, wrong order
	swapped[2], swapped[5] = swapped[5], swapped[2]
	if err := verifySorted(swapped, uint64Image, want); err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Errorf("swapped keys not caught by the order check: %v", err)
	}

	a, b := checksumOf(in[:3], uint64Image), checksumOf(in[3:], uint64Image)
	if a.merge(b) != want {
		t.Error("per-rank digests must merge into the whole input's digest")
	}
}

func TestVerifyKeyStream(t *testing.T) {
	keys := []uint64{0, 7, 7, 1000000007, 18446744073709551615}
	var body []byte
	for _, k := range keys {
		body = strconv.AppendUint(body, k, 10)
		body = append(body, '\n')
	}
	want := checksumOf(keys, uint64Image)
	// A tiny buffer forces numbers to straddle reads.
	n, err := verifyKeyStream(bytes.NewReader(body), make([]byte, 3), want)
	if err != nil || n != int64(len(body)) {
		t.Fatalf("good stream: n=%d err=%v", n, err)
	}
	if _, err := verifyKeyStream(strings.NewReader("7\n5\n"), make([]byte, 16), checksumOf([]uint64{5, 7}, uint64Image)); err == nil {
		t.Error("descending stream accepted")
	}
	if _, err := verifyKeyStream(bytes.NewReader(body[:len(body)-1]), make([]byte, 16), want); err == nil {
		t.Error("stream cut inside its last line accepted")
	}
	if _, err := verifyKeyStream(bytes.NewReader(body[:4]), make([]byte, 16), want); err == nil {
		t.Error("stream missing keys accepted")
	}
	if _, err := verifyKeyStream(strings.NewReader("12\nx\n"), make([]byte, 16), want); err == nil {
		t.Error("garbage accepted")
	}
}

// The same seed must give the same inputs, a different seed different ones:
// workload specs, inline keys and job seeds all derive from -seed.
func TestSameSeedSameInputs(t *testing.T) {
	for _, gen := range []func(uint64) ([]uint64, error){
		func(s uint64) ([]uint64, error) { return sortBulk.gen(s, 3, 500) },
		func(s uint64) ([]uint64, error) { return sortSpill.gen(s, 1, 500) },
		func(s uint64) ([]uint64, error) {
			f, err := sortLatency.gen(s, 63, 500)
			out := make([]uint64, len(f))
			for i, v := range f {
				out[i] = sortLatency.image(v)
			}
			return out, err
		},
	} {
		a, err1 := gen(7)
		b, err2 := gen(7)
		c, err3 := gen(8)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatal(err1, err2, err3)
		}
		if !slices.Equal(a, b) {
			t.Error("same seed gave different inputs")
		}
		if slices.Equal(a, c) {
			t.Error("different seeds gave the same inputs")
		}
	}

	bodies := func(seed uint64, c, k int) [][]byte {
		sp, err := serveSession.plan(seed, c, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(sp.jobs) != 1+serveSession.smallJobs || !sp.jobs[0].solo || sp.jobs[1].solo {
			t.Fatalf("session plan has %d jobs, want one solo job first and %d small ones", len(sp.jobs), serveSession.smallJobs)
		}
		var out [][]byte
		for _, j := range sp.jobs {
			if j.want.N != j.spec.N+len(j.spec.Keys) {
				t.Errorf("job digest covers %d keys, the job has %d", j.want.N, j.spec.N+len(j.spec.Keys))
			}
			out = append(out, j.body)
		}
		return out
	}
	eq := func(a, b [][]byte) bool { return slices.EqualFunc(a, b, bytes.Equal) }
	base := bodies(7, 0, 0)
	if !eq(base, bodies(7, 0, 0)) {
		t.Error("same seed gave different sessions")
	}
	if eq(base, bodies(8, 0, 0)) || eq(base, bodies(7, 1, 0)) || eq(base, bodies(7, 0, 1)) {
		t.Error("seed, client and session index must each change the session")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is the contract other tools read; the tables in metrics.go
// and workloads.go are what the program emits.  They must say the same.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	if !slices.Equal(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their rationales differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or used twice", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, got []metricJSON, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, m, d)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: name %q or unit %q is malformed, or the name is used twice", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: %s: better = %q", kind, m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: %s: bound must be in (0, 0.25] and match the program's %g", kind, m.Name, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: %s: per-layer metrics carry no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	setup := endToEnd[len(endToEnd)-1]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a wider bound than setup_s, which should have the largest", d.Name)
		}
	}
}

func TestSinkRefusesMissingMetrics(t *testing.T) {
	out := newSink()
	for _, d := range endToEnd[1:] {
		out.set(d.Name, 1)
	}
	if _, err := newResult(out, endToEnd, 1, 0); err == nil || !strings.Contains(err.Error(), endToEnd[0].Name) {
		t.Errorf("a result with %s missing was accepted: %v", endToEnd[0].Name, err)
	}
	out.setMedian(endToEnd[0].Name, []float64{3, 1, 2})
	res, err := newResult(out, endToEnd, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Metrics[endToEnd[0].Name].Value != 2 || res.Metrics[endToEnd[0].Name].Unit != endToEnd[0].Unit {
		t.Errorf("result = %+v", res)
	}
	var buf bytes.Buffer
	if err := res.print(&buf); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &keys); err != nil || len(keys) != 4 || bytes.Count(buf.Bytes(), []byte("\n")) != 1 {
		t.Errorf("result line must be one JSON object with exactly four keys: %s (%v)", buf.Bytes(), err)
	}
}

func TestTracerWritesLoadableChromeTrace(t *testing.T) {
	tr := newTracer()
	rank := tr.newLane("rank 0")
	driver := tr.newLane("driver")
	op := tr.newOp()
	rank.add("core.localsort", 10, 30, op, op)
	rank.add("core.barrier_wait", 30, 35, op, op)
	driver.add("sort-bulk.op", 5, 40, op, -1)
	if tr.newOp() == op {
		t.Error("op ids must be unique")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path, "test"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		spans++
		if _, ok := ev.Args["op"]; !ok {
			t.Errorf("span %s carries no op id", ev.Name)
		}
		_, hasParent := ev.Args["parent"]
		if hasParent == (ev.Name == "sort-bulk.op") {
			t.Errorf("span %s: only layer spans name a parent, the op span does not", ev.Name)
		}
	}
	if spans != 3 || tr.spanCount() != 3 {
		t.Errorf("%d spans in the file, %d in the tracer, want 3", spans, tr.spanCount())
	}
}

func TestCountingStoreCounts(t *testing.T) {
	cs := &countingStore{inner: store.NewMem()}
	recs := []xmath.U128{{Hi: 1}, {Hi: 2}, {Hi: 3}, {Hi: 4}}
	w, err := cs.Create("r")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := cs.Open("r")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SeekRecord(2); err != nil {
		t.Fatal(err)
	}
	buf := make([]xmath.U128, 8)
	n, err := r.Read(buf)
	if n != 2 || (err != nil && !errors.Is(err, io.EOF)) || buf[0].Hi != 3 {
		t.Fatalf("read after seek: n=%d err=%v first=%v", n, err, buf[0])
	}
	r.Close()
	if err := cs.Remove("r"); err != nil {
		t.Fatal(err)
	}
	got := cs.reset()
	// Create, Append, Close, Open, SeekRecord, Read, Close, Remove.
	if got.calls != 8 || got.runs != 1 || got.seeks != 1 || got.writeBytes != 4*store.RecordBytes || got.readBytes != 2*store.RecordBytes {
		t.Errorf("counts = %+v", got)
	}
	if again := cs.reset(); again != (storeCounts{}) {
		t.Errorf("reset must zero the counters, got %+v", again)
	}
}
