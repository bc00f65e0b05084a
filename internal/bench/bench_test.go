package bench

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"dhsort/internal/core"
	"dhsort/internal/fault"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

// The experiment drivers are exercised with minimal options so the full
// reporting paths stay correct; cmd/bench runs the real sweeps.

func TestFindExperiments(t *testing.T) {
	for _, e := range Experiments {
		got, ok := Find(e.Name)
		if !ok || got.Name != e.Name {
			t.Errorf("Find(%q) failed", e.Name)
		}
		if e.Description == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.Name)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Error("unknown experiment must not resolve")
	}
}

func TestMachineReport(t *testing.T) {
	var buf bytes.Buffer
	if err := Machine(Options{Out: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"E5-2697v3", "FDR14", "PGAS", "ns/compare"} {
		if !strings.Contains(out, want) {
			t.Errorf("machine report missing %q", want)
		}
	}
}

func TestItersReport(t *testing.T) {
	var buf bytes.Buffer
	if err := Iters(Options{Out: &buf, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "uint64 full range") || !strings.Contains(out, "float32") {
		t.Errorf("iters report incomplete:\n%s", out)
	}
}

func TestPGASReport(t *testing.T) {
	var buf bytes.Buffer
	if err := PGAS(Options{Out: &buf, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PGAS gain") {
		t.Errorf("pgas report incomplete:\n%s", buf.String())
	}
}

func TestFig4Report(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig4(Options{Out: &buf, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "domains") || !strings.Contains(out, "winner") {
		t.Errorf("fig4 report incomplete:\n%s", out)
	}
	// The paper's crossover (judged on the paper-faithful comparison-kernel
	// column): PSTL must win the 1-domain row, dhsort the 4-domain row.
	// The +radix column is informational — the fast path this reproduction
	// adds on top of the paper's std::sort local phase.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 7 && fields[0] == "1" && fields[6] != "PSTL" {
			t.Errorf("1-domain winner = %s, want PSTL", fields[6])
		}
		if len(fields) >= 7 && fields[0] == "4" && fields[6] != "dhsort" {
			t.Errorf("4-domain winner = %s, want dhsort", fields[6])
		}
	}
}

func TestNormalStudyReport(t *testing.T) {
	var buf bytes.Buffer
	if err := NormalStudy(Options{Out: &buf, Reps: 2, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "iteration spread") {
		t.Errorf("normal study incomplete:\n%s", buf.String())
	}
}

func TestSharedMergeSortModelShape(t *testing.T) {
	m := simnet.SuperMUC(28, true)
	// More domains must not speed up the memory-bound sort by more than
	// the compute share; one domain must be the compute/memory blend.
	d1 := sharedMergeSortTime(1<<29, 14, 1, m, 1.0)
	d4 := sharedMergeSortTime(1<<29, 56, 4, m, 1.0)
	if d1 <= 0 || d4 <= 0 {
		t.Fatal("model must price positive times")
	}
	// Task overhead must cost something.
	omp := sharedMergeSortTime(1<<29, 14, 1, m, 1.3)
	if omp <= d1 {
		t.Error("task overhead must increase the modelled time")
	}
	if sharedMergeSortTime(1, 8, 2, m, 1.0) != 0 {
		t.Error("degenerate input must be free")
	}
}

// runReport runs one experiment into a buffer and returns its output lines,
// each split into fields.
func runReport(t *testing.T, exp func(Options) error, o Options) [][]string {
	t.Helper()
	var buf bytes.Buffer
	o.Out = &buf
	if err := exp(o); err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, line := range strings.Split(buf.String(), "\n") {
		rows = append(rows, strings.Fields(line))
	}
	return rows
}

// number parses a table cell, failing the test on anything else.
func number(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q is not a number", cell)
	}
	return v
}

// TestFaultStudyReport checks the degradation grid's fault-free baseline
// and the operator's -fault row, which runs under the operator's recovery
// mode: a death schedule completes only under shrink recovery.
func TestFaultStudyReport(t *testing.T) {
	plan, err := fault.Parse("die=3@1,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	var free, extra bool
	for _, f := range runReport(t, FaultStudy, Options{Reps: 1, Fault: plan, Recovery: core.RecoveryShrink}) {
		switch {
		case len(f) > 2 && f[0] == "fault-free":
			free = true
			if f[2] != "+0.0%" {
				t.Errorf("fault-free overhead %s, want +0.0%%", f[2])
			}
		case len(f) > 0 && f[0] == plan.String():
			extra = true
		}
	}
	if !free || !extra {
		t.Errorf("fault report rows: fault-free %v, operator schedule %v", free, extra)
	}
}

// TestShrinkStudyReport: every die row finishes on p - deaths survivors.
func TestShrinkStudyReport(t *testing.T) {
	const p = 16
	rows := 0
	for _, f := range runReport(t, ShrinkStudy, Options{Reps: 1}) {
		if len(f) < 5 || f[0] != "die" {
			continue
		}
		rows++
		deaths, survivors := number(t, f[len(f)-4]), number(t, f[len(f)-1])
		if deaths < 1 || survivors != p-deaths {
			t.Errorf("%v: %v deaths, %v survivors at p=%d", f, deaths, survivors, p)
		}
	}
	if rows != 3 {
		t.Errorf("%d die rows, want 3", rows)
	}
}

// TestOOCStudyReport: scratch traffic does not rise as the fan-in widens.
func TestOOCStudyReport(t *testing.T) {
	rows, prev := 0, math.Inf(1)
	for _, f := range runReport(t, OOCStudy, Options{Reps: 1}) {
		switch {
		case len(f) > 0 && f[0] == "resident":
			prev = math.Inf(1)
		case len(f) > 5 && f[0] == "spill":
			rows++
			mib := number(t, f[5])
			if mib > prev {
				t.Errorf("%s: scratch %.2f MiB rose from %.2f", f[1], mib, prev)
			}
			prev = mib
		}
	}
	if rows != 8 {
		t.Errorf("%d spill rows, want 8", rows)
	}
}

// TestSkewStudyReport: the histogram sort is count-exact at every flood.
func TestSkewStudyReport(t *testing.T) {
	rows := 0
	for _, f := range runReport(t, SkewStudy, Options{Reps: 1}) {
		if len(f) != 4 || f[0] == "flood" {
			continue
		}
		rows++
		if f[3] != "1.00" {
			t.Errorf("flood %s: dhsort imbalance %s, want 1.00", f[0], f[3])
		}
	}
	if rows != 5 {
		t.Errorf("%d flood rows, want 5", rows)
	}
}

// TestSplitStudyReport: refinement rounds fall from 1 to 8 probes at both P.
func TestSplitStudyReport(t *testing.T) {
	tables, bisection := 0, 0.0
	for _, f := range runReport(t, SplitStudy, Options{Reps: 1}) {
		if len(f) < 4 || !strings.HasSuffix(f[2], "ns") {
			continue
		}
		switch k, rounds := number(t, f[0]), number(t, f[1]); k {
		case 1:
			bisection = rounds
		case 8:
			tables++
			if rounds >= bisection {
				t.Errorf("table %d: %v rounds at 8 probes, %v at bisection", tables, rounds, bisection)
			}
		}
	}
	if tables != 2 {
		t.Errorf("%d probe tables, want 2", tables)
	}
}

// TestBaselinesReport: dhsort partitions perfectly, and every row reports
// the network volume its timed run moved — bitonic, which moves the data
// log P times, more than dhsort.
func TestBaselinesReport(t *testing.T) {
	net := map[string]float64{}
	for _, f := range runReport(t, Baselines, Options{Reps: 1}) {
		if len(f) < 5 || !strings.HasPrefix(f[2], "[") {
			continue
		}
		net[f[0]] = number(t, f[3])
		if f[0] == "dhsort" && f[4] != "1.00" {
			t.Errorf("dhsort imbalance %s, want 1.00", f[4])
		}
	}
	if len(net) != 5 || net["dhsort"] <= 0 || net["bitonic"] <= net["dhsort"] {
		t.Errorf("network GiB by sorter: %v", net)
	}
}

// TestOverlapReport: with the binary-tree merge fixed, Bruck and leader-based
// aggregation both lose to the 1-factor exchange on large blocks.  Rows are
// the lines whose first cell is a core count: a footer line can have as many
// fields as a row.
func TestOverlapReport(t *testing.T) {
	rows := 0
	for _, f := range runReport(t, Overlap, Options{Reps: 1}) {
		if len(f) == 0 || (f[0] != "64" && f[0] != "256") {
			continue
		}
		rows++
		tree, bruck, hier := number(t, f[2]), number(t, f[4]), number(t, f[5])
		if bruck <= tree || hier <= tree {
			t.Errorf("cores %s: binary-tree %v s, bruck %v s, hierarchical %v s", f[0], tree, bruck, hier)
		}
	}
	if rows != 2 {
		t.Errorf("%d rows, want 2", rows)
	}
}

// TestEverySorterNeverPricesLessAtHugeScale runs every entry of Sorters
// across virtual scales up to math.MaxFloat64: a larger scale must never
// price a run faster (the sibling of core's TestHugeScaleNeverPricesLess).
func TestEverySorterNeverPricesLessAtHugeScale(t *testing.T) {
	for name, sort := range Sorters {
		var prev time.Duration
		for _, scale := range []float64{1, 1e3, 1e12, 1e30, math.MaxFloat64} {
			res, err := Run(sort, core.Config{Threads: 1, VirtualScale: scale}, Trial{
				P: 8, N: 1 << 13, Model: simnet.SuperMUC(4, true),
				Spec: workload.Spec{Dist: workload.Uniform, Seed: 17, Span: 1e9},
			})
			if err != nil {
				t.Fatalf("%s at scale %g: %v", name, scale, err)
			}
			if res.Makespan < prev {
				t.Errorf("%s: scale %g prices %v, below the smaller scale's %v", name, scale, res.Makespan, prev)
			}
			prev = res.Makespan
		}
	}
}
