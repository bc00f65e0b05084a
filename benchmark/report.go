package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the result line of one workload run: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult packs the sink's values for defs, refusing to emit a result
// with a registry metric missing.
func newResult(out *sink, defs []metricDef, attempted, failed int) (result, error) {
	if miss := out.missing(defs); len(miss) > 0 {
		return result{}, fmt.Errorf("metrics never measured: %s", strings.Join(miss, ", "))
	}
	res := result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: out.get(d.Name), Unit: d.Unit}
	}
	return res, nil
}

// print writes the result as the one-line JSON object the contract asks for.
func (r result) print(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// peakRSSMiB is this process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// runUntraced measures the end-to-end metrics: rounds of set-up plus timed
// ops until the timed windows add up to rc.seconds.
func runUntraced(def workloadDef, rc *runCtx) (result, error) {
	var (
		measured  time.Duration
		busy      time.Duration
		ops       []time.Duration
		setups    []time.Duration
		keys      int64
		attempted int
		failed    int
	)
	// A new round starts only while a worthwhile share of the measuring
	// time is left: a whole set-up for a sliver of ops measures nothing.
	for rc.seconds-measured > rc.seconds/20 {
		rr, err := def.w.round(rc, rc.seconds-measured)
		if err != nil {
			return result{}, err
		}
		measured += rr.window
		busy += rr.busy
		ops = append(ops, rr.ops...)
		setups = append(setups, rr.setup)
		keys += rr.keys
		attempted += rr.attempted
		failed += rr.failed
	}
	if len(ops) == 0 {
		return result{}, fmt.Errorf("%s: no op succeeded (%d attempted)", def.name, attempted)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}

	out := newSink()
	opMS := summarize(ms(ops))
	out.set("keys_per_s", float64(keys)/busy.Seconds())
	out.vals["op_p50_ms"] = value{V: opMS.Q2, Sample: &opMS}
	out.vals["op_p90_ms"] = value{V: opMS.P90, Sample: &opMS}
	out.set("peak_rss_mib", rss)
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	out.setMedian("setup_s", setupS)

	rc.logf("  rounds %d  ops attempted %d  succeeded %d  failed %d", len(setups), attempted, attempted-failed, failed)
	for _, d := range endToEnd {
		rc.logf("%s", out.line(d))
	}
	if !opMS.P90IsBacked {
		backed := "no tail percentile"
		if opMS.TailBacked > 0 {
			backed = fmt.Sprintf("p%g", opMS.TailBacked*100)
		}
		rc.logf("  note: %d samples leave %d beyond p90; ten samples beyond back %s here", opMS.N,
			samplesBeyond(opMS.N, 0.90), backed)
	}
	return newResult(out, endToEnd, attempted, failed)
}

// runTraced produces the per-layer metrics: the workload's own traced ops,
// then the probes that do not depend on the workload.
func runTraced(def workloadDef, rc *runCtx, traceOut string) (result, error) {
	tr := newTracer()
	out := newSink()
	attempted, failed, err := def.w.traced(rc, tr, out)
	if err != nil {
		return result{}, err
	}
	if err := fixedProbes(rc, out); err != nil {
		return result{}, err
	}
	if err := tr.writeChrome(traceOut, "dhsort benchmark: "+def.name); err != nil {
		return result{}, err
	}
	rc.logf("  traced ops attempted %d  succeeded %d  failed %d", attempted, attempted-failed, failed)
	for _, d := range perLayer {
		rc.logf("%s", out.line(d))
	}
	rc.logf("  trace: %d spans written to %s", tr.spanCount(), traceOut)
	return newResult(out, perLayer, attempted, failed)
}

// hostInfo is recorded beside every set of results.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LLC        string `json:"llc"`
	Commit     string `json:"commit"`
}

func readHostInfo() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", LLC: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The last-level cache is the highest cache index cpu0 exposes.
	for i := 0; ; i++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		h.LLC = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// document is what a run over every workload prints last.
type document struct {
	Schema    string            `json:"schema"`
	Host      hostInfo          `json:"host"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     int               `json:"trace"`
	OpCounts  map[string]string `json:"op_counts"`
	Workloads map[string]result `json:"workloads"`
}

// opCounts records the fixed sizes behind each workload's rounds.
func opCounts() map[string]string {
	ss := serveSession
	return map[string]string{
		"sort-bulk":     fmt.Sprintf("%d warm-up + up to %d timed ops per round", sortBulk.warmOps, sortBulk.roundOps),
		"sort-latency":  fmt.Sprintf("%d warm-up + up to %d timed ops per round", sortLatency.warmOps, sortLatency.roundOps),
		"sort-spill":    fmt.Sprintf("%d warm-up + up to %d timed ops per round", sortSpill.warmOps, sortSpill.roundOps),
		"serve-session": fmt.Sprintf("%d clients x (%d warm-up + up to %d timed sessions) per round, %d jobs per session", ss.clients, ss.warmSessions, ss.roundSessions, 1+ss.smallJobs),
	}
}

// runChild runs one workload in a child process of its own, so peak RSS, GC
// state and pooled worlds never leak between workloads.  The child's report
// is passed through to w; its last line is parsed as the result.
func runChild(o options, name string, w io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe,
		"-workload", name,
		"-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace))
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if !strings.HasPrefix(last, "{") {
			fmt.Fprintln(w, last)
		}
	}
	waitErr := cmd.Wait() // the child has ended before we return, on every path
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if waitErr != nil {
			return result{}, fmt.Errorf("%s: %w", name, waitErr)
		}
		return result{}, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return res, nil
}

// runAll runs every workload, each in its own child, and prints the
// combined document last.  It fails if any op of any workload failed.
func runAll(o options, w io.Writer) (document, error) {
	doc := document{Schema: "dhsort-wallbench/v1", Host: readHostInfo(), Seed: o.seed, Seconds: o.seconds,
		Trace: o.trace, OpCounts: opCounts(), Workloads: make(map[string]result)}
	bad := 0
	for _, def := range workloads {
		res, err := runChild(o, def.name, w)
		if err != nil {
			return doc, err
		}
		doc.Workloads[def.name] = res
		fmt.Fprintf(w, "  %s: attempted %d  succeeded %d  failed %d\n", def.name, res.Attempted, res.Attempted-res.Failed, res.Failed)
		if !res.Correct {
			bad++
		}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return doc, err
	}
	fmt.Fprintf(w, "%s\n", b)
	if bad > 0 {
		return doc, fmt.Errorf("%d workloads had ops that failed verification", bad)
	}
	return doc, nil
}

// runAA runs the untraced set twice and prints, per workload and
// end-to-end metric, how far the two runs of the same code disagree beside
// the metric's bound.  Any pair beyond its bound is an error: the metric
// cannot serve as a gate at that bound on this machine.
func runAA(o options) error {
	o.trace = 0
	var docs [2]document
	for i := range docs {
		fmt.Printf("== A/A set %d ==\n", i+1)
		var err error
		if docs[i], err = runAll(o, os.Stdout); err != nil {
			return err
		}
	}
	fmt.Printf("== A/A comparison (relative difference | bound) ==\n")
	beyond := 0
	for _, def := range workloads {
		for _, m := range endToEnd {
			a := docs[0].Workloads[def.name].Metrics[m.Name].Value
			b := docs[1].Workloads[def.name].Metrics[m.Name].Value
			diff := aaDiff(m.Better, a, b)
			verdict := "ok"
			if diff > m.Bound {
				verdict = "BEYOND BOUND"
				beyond++
			}
			fmt.Printf("  %-14s %-14s %14.6g %14.6g  %6.2f%% | %5.1f%%  %s\n",
				def.name, m.Name, a, b, diff*100, m.Bound*100, verdict)
		}
	}
	if beyond > 0 {
		return fmt.Errorf("%d metric pairs disagree beyond their bound", beyond)
	}
	return nil
}

// aaDiff is the larger of the two worsenings between a pair of runs of the
// same code: neither is the baseline, so the comparison is symmetric.
func aaDiff(better string, a, b float64) float64 {
	return max(worsening(better, a, b), worsening(better, b, a))
}
