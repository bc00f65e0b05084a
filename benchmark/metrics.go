package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric of the benchmark contract.  BENCHMARK.json
// mirrors these tables (TestBenchmarkJSONMatchesRegistry keeps them in
// step); later issues refer to metrics by these names.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: tolerated worsening as a share of the baseline
}

// endToEnd are the metrics a user of the system sees, reported for every
// workload from the untraced run.
var endToEnd = []metricDef{
	{"keys_per_s", "keys/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run.  They carry no
// bound; README.md records which end-to-end metric each should move.
var perLayer = []metricDef{
	// core: the four supersteps driven from the benchmark, waits separated.
	{"core.localsort_ms", "ms", "lower", 0},
	{"core.splitters_ms", "ms", "lower", 0},
	{"core.cuts_ms", "ms", "lower", 0},
	{"core.exchange_merge_ms", "ms", "lower", 0},
	{"core.barrier_wait_ms", "ms", "lower", 0},
	{"core.unattributed_ms", "ms", "lower", 0},
	{"core.histogram_rounds", "count", "lower", 0},
	{"core.time_imbalance", "ratio", "lower", 0},
	{"core.output_imbalance", "ratio", "lower", 0},
	{"core.exchange_merge_ms.overlap", "ms", "lower", 0},
	{"core.exchange_merge_ms.rma-put", "ms", "lower", 0},
	{"hss.splitters_ms", "ms", "lower", 0},
	{"core.phase_ms.localsort", "ms", "lower", 0},
	{"core.phase_ms.histogram", "ms", "lower", 0},
	{"core.phase_ms.exchange", "ms", "lower", 0},
	{"core.phase_ms.merge", "ms", "lower", 0},
	{"core.phase_ms.other", "ms", "lower", 0},
	{"core.spill_over_resident", "ratio", "lower", 0},
	{"core.spill_fs_over_mem", "ratio", "lower", 0},

	// comm: collectives and the mailbox underneath them.
	{"comm.alltoallv_replay_ms", "ms", "lower", 0},
	{"comm.alltoallv_gb_s", "GB/s", "higher", 0},
	{"comm.msgs_per_op", "count", "lower", 0},
	{"comm.bytes_per_op", "count", "lower", 0},
	{"comm.pingpong_us", "us", "lower", 0},
	{"comm.allreduce_p2_us", "us", "lower", 0},
	{"comm.allreduce_p16_us", "us", "lower", 0},
	{"comm.allreduce_p64_us", "us", "lower", 0},
	{"comm.allgather_p64_us", "us", "lower", 0},
	{"comm.barrier_p64_us", "us", "lower", 0},
	{"comm.alltoallv_small_p64_us", "us", "lower", 0},
	{"comm.execute_dispatch_p64_us", "us", "lower", 0},
	{"comm.world_build_p64_us", "us", "lower", 0},

	// sortutil / psort / keys: local kernels, 2^20 keys.
	{"sortutil.radix_u64_full_mkeys_s", "Mkeys/s", "higher", 0},
	{"sortutil.radix_u64_span1e9_mkeys_s", "Mkeys/s", "higher", 0},
	{"sortutil.radix_f64_mkeys_s", "Mkeys/s", "higher", 0},
	{"sortutil.radix_pair_mkeys_s", "Mkeys/s", "higher", 0},
	{"sortutil.introsort_u64_mkeys_s", "Mkeys/s", "higher", 0},
	{"psort.taskmerge_u64_mkeys_s", "Mkeys/s", "higher", 0},
	{"sortutil.merge_loser_k16_mkeys_s", "Mkeys/s", "higher", 0},
	{"psort.merge_binary_k16_mkeys_s", "Mkeys/s", "higher", 0},

	// store: the out-of-core plane, as the op uses it and called directly.
	{"store.calls_per_op", "count", "lower", 0},
	{"store.runs_per_op", "count", "lower", 0},
	{"store.seeks_per_op", "count", "lower", 0},
	{"store.write_mib_per_op", "MiB", "lower", 0},
	{"store.read_mib_per_op", "MiB", "lower", 0},
	{"store.busy_share", "ratio", "lower", 0},
	{"store.fs_seal_mb_s", "MB/s", "higher", 0},
	{"store.fs_read_mb_s", "MB/s", "higher", 0},
	{"store.fs_seek_read_us", "us", "lower", 0},
	{"store.fs_merge_k8_mrec_s", "Mrec/s", "higher", 0},
	{"store.mem_seal_mb_s", "MB/s", "higher", 0},
	{"store.mem_read_mb_s", "MB/s", "higher", 0},
	{"store.mem_seek_read_us", "us", "lower", 0},
	{"store.mem_merge_k8_mrec_s", "Mrec/s", "higher", 0},

	// server / api: the service path, from the client's spans, JobStatus
	// timestamps and MetricsSnapshot.
	{"api.submit_ms", "ms", "lower", 0},
	{"api.status_ms", "ms", "lower", 0},
	{"api.polls_per_job", "count", "lower", 0},
	{"api.result_ms", "ms", "lower", 0},
	{"api.result_mb_s", "MB/s", "higher", 0},
	{"server.queue_wait_ms.small", "ms", "lower", 0},
	{"server.queue_wait_ms.solo", "ms", "lower", 0},
	{"server.run_ms.small", "ms", "lower", 0},
	{"server.run_ms.solo", "ms", "lower", 0},
	{"server.notify_lag_ms", "ms", "lower", 0},
	{"server.batch_fill", "ratio", "higher", 0},
	{"server.pool_hit_ratio", "ratio", "higher", 0},
	{"server.warm_hit_ratio", "ratio", "higher", 0},
	{"server.rejected", "count", "lower", 0},
	{"server.retained_kib_per_job", "KiB", "lower", 0},
	{"server.session_engine_ms", "ms", "lower", 0},
	{"api.session_overhead_ms", "ms", "lower", 0},

	// bounds, ratios to them, the cost model against the wall, the runtime.
	{"bound.copy_32mib_gb_s", "GB/s", "higher", 0},
	{"bound.flat_kernel_ms", "ms", "lower", 0},
	{"bound.flat_slices_sort_ms", "ms", "lower", 0},
	{"bound.loopback_http_mb_s", "MB/s", "higher", 0},
	{"ratio.op_over_flat_kernel", "ratio", "lower", 0},
	{"ratio.op_over_flat_slices_sort", "ratio", "lower", 0},
	{"ratio.exchange_over_copy", "ratio", "lower", 0},
	{"ratio.result_over_loopback", "ratio", "higher", 0},
	{"simnet.model_over_wall.localsort", "ratio", "lower", 0},
	{"simnet.model_over_wall.splitters", "ratio", "lower", 0},
	{"simnet.model_over_wall.exchange_merge", "ratio", "lower", 0},
	{"runtime.alloc_bytes_per_key", "B", "lower", 0},
	{"runtime.mallocs_per_op", "count", "lower", 0},
	{"runtime.gc_cycles_per_op", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// value is one reported number: the metric value plus, where it is a
// digest of a sample, the sample it came from.
type value struct {
	V      float64
	Sample *summary
}

// sink collects the metrics of one run by name.
type sink struct {
	vals map[string]value
}

func newSink() *sink { return &sink{vals: make(map[string]value)} }

// set records a plain number (a count, a ratio, a throughput of one pass).
func (s *sink) set(name string, v float64) { s.vals[name] = value{V: v} }

// setMedian records the median of a sample and keeps its digest for the
// human-readable report.
func (s *sink) setMedian(name string, sample []float64) {
	d := summarize(sample)
	s.vals[name] = value{V: d.Q2, Sample: &d}
}

func (s *sink) get(name string) float64 { return s.vals[name].V }

// missing lists the registry names the sink holds no value for.
func (s *sink) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := s.vals[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}

// line renders one metric for the human-readable report.
func (s *sink) line(d metricDef) string {
	v := s.vals[d.Name]
	out := fmt.Sprintf("  %-40s %16.6g %-8s", d.Name, v.V, d.Unit)
	if v.Sample != nil {
		out += fmt.Sprintf(" n=%-5d q1=%.6g q2=%.6g q3=%.6g", v.Sample.N, v.Sample.Q1, v.Sample.Q2, v.Sample.Q3)
	}
	return out
}
