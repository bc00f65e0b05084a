package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"dhsort/internal/simnet"
)

// SchemaVersion identifies the JSON document layout.  Bump it only on
// incompatible changes; the compare gate refuses to diff documents with
// mismatched schemas.
const SchemaVersion = "dhsort-bench/v1"

// Document is the top-level benchmark artifact (BENCH_*.json).
type Document struct {
	// Schema is always SchemaVersion.
	Schema string `json:"schema"`
	// Config records how the suite was run.
	Config RunConfig `json:"config"`
	// Records holds one entry per (algorithm, P, per-rank size, workload)
	// point, sorted by Record.Key.
	Records []Record `json:"records"`
}

// RunConfig describes the suite configuration that produced a document.
type RunConfig struct {
	// Suite is "full" or "smoke".
	Suite string `json:"suite"`
	// Model names the cost model ("supermuc-pgas" / "supermuc-mpi").
	Model string `json:"model"`
	// RanksPerNode is the modelled node width.
	RanksPerNode int `json:"ranks_per_node"`
	// Reps is the repetition count per point.
	Reps int `json:"reps"`
	// Seed is the base workload seed.
	Seed uint64 `json:"seed"`
	// Fault is the fault schedule the suite ran under, in fault.Parse
	// syntax.  OPTIONAL: omitted for fault-free suites, so pre-existing
	// documents stay byte-identical.
	Fault string `json:"fault,omitempty"`
}

// DurationStat summarizes a repeated timing in nanoseconds of virtual (or
// wall) time.
type DurationStat struct {
	MeanNS int64 `json:"mean_ns"`
	MinNS  int64 `json:"min_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// NewDurationStat summarizes reps.
func NewDurationStat(reps []time.Duration) DurationStat {
	if len(reps) == 0 {
		return DurationStat{}
	}
	var sum, min, max time.Duration
	min = reps[0]
	for _, d := range reps {
		sum += d
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return DurationStat{
		MeanNS: int64(sum) / int64(len(reps)),
		MinNS:  int64(min),
		MaxNS:  int64(max),
	}
}

// PhaseStat is one superstep's contribution: time across ranks plus the
// communication it caused, keyed by link-class name.
type PhaseStat struct {
	// MeanNS is the mean per-rank duration of the phase.
	MeanNS int64 `json:"mean_ns"`
	// MaxNS is the slowest rank's duration of the phase.
	MaxNS int64 `json:"max_ns"`
	// Links maps link-class name ("self", "same-numa", "cross-numa",
	// "network") to the total volume the phase moved over it; classes with
	// no traffic are omitted.
	Links map[string]LinkTally `json:"links,omitempty"`
}

// FaultStat is a record's fault block: the injected faults and the
// resilience work summed across ranks, plus the size of the communicator a
// shrink recovery left.  The whole block is an OPTIONAL schema field
// (omitted for fault-free records via the `fault,omitempty` pointer on
// Record) — the same additive pattern as the one-sided link counters.
type FaultStat struct {
	FaultTally
	Survivors int `json:"survivors,omitempty"`
}

// ElasticStat describes the world a job ran on when that world changed
// size since construction: BaseP is the size it was built with, and
// JoinedRanks / RemovedRanks count the ranks the grow and shrink
// collectives added and retired over its lifetime.  The record's own P
// field is the size the job actually used.
type ElasticStat struct {
	BaseP        int `json:"base_p,omitempty"`
	JoinedRanks  int `json:"joined_ranks,omitempty"`
	RemovedRanks int `json:"removed_ranks,omitempty"`
}

// Imbalance carries the run's load-imbalance factors (1.0 = balanced).
type Imbalance struct {
	Time   float64 `json:"time"`
	Output float64 `json:"output"`
}

// Totals aggregates a record across phases.
type Totals struct {
	Links          map[string]LinkTally `json:"links,omitempty"`
	ExchangedBytes int64                `json:"exchanged_bytes"`
}

// Record is one measured configuration.
type Record struct {
	Algorithm string `json:"algorithm"`
	P         int    `json:"p"`
	PerRank   int    `json:"per_rank"`
	Workload  string `json:"workload"`
	Reps      int    `json:"reps"`
	// Makespan is the virtual parallel execution time (max over ranks),
	// summarized over repetitions.
	Makespan DurationStat `json:"makespan"`
	// Iterations is the histogramming iteration count (first repetition).
	Iterations int `json:"iterations"`
	// Probes is the k-ary probe count per unfinished splitter per
	// refinement round.  OPTIONAL: omitted for bisection runs (k = 1
	// records nothing), so pre-existing documents stay byte-identical.
	Probes    int       `json:"probes,omitempty"`
	Imbalance Imbalance `json:"imbalance"`
	// Exchange is the effective data-exchange algorithm the run used
	// (optional: empty for algorithms that do not record one).  It names
	// what actually ran, e.g. "one-factor" for hierarchical in a world
	// without node topology, or "rma-put" for the one-sided path.
	Exchange string `json:"exchange,omitempty"`
	// LocalSortKernel names the Local Sort kernel the dispatch chose
	// ("radix", "task-merge", "introsort").  OPTIONAL: omitted when the
	// run did not record one, so pre-existing documents stay
	// byte-identical (the same additive pattern as Exchange).
	LocalSortKernel string `json:"local_sort_kernel,omitempty"`
	// Threads is the intra-rank worker budget of the compute supersteps.
	// OPTIONAL: omitted when unrecorded.
	Threads int `json:"threads,omitempty"`
	// Fault is the fault-plane activity of the first repetition.
	// OPTIONAL: nil (omitted) for fault-free records, so pre-existing
	// documents stay byte-identical.
	Fault *FaultStat `json:"fault,omitempty"`
	// Recovery names the recovery mode the record ran under ("respawn" or
	// "shrink").  OPTIONAL: omitted for fault-free records and for runs
	// that did not set one, preserving byte-identity.
	Recovery string `json:"recovery,omitempty"`
	// Rebalances / RebalanceRounds / RebalanceBytes / RebalanceNS account
	// the post-merge bounded rebalance (skew-proofing).  OPTIONAL: all
	// omitted when the run never rebalanced, so pre-existing documents
	// stay byte-identical (the same additive pattern as Fault).
	Rebalances      int64 `json:"rebalances,omitempty"`
	RebalanceRounds int64 `json:"rebalance_rounds,omitempty"`
	RebalanceBytes  int64 `json:"rebalance_bytes,omitempty"`
	RebalanceNS     int64 `json:"rebalance_ns,omitempty"`
	// Elastic records that the job ran on an elastically resized persistent
	// world (ranks joined or left between jobs).  OPTIONAL: nil for jobs on
	// statically sized worlds, so pre-existing documents stay byte-identical
	// (the same additive pattern as Fault).
	Elastic *ElasticStat `json:"elastic,omitempty"`
	// MemBudget / SpilledRuns / SpillBytes account the out-of-core path:
	// the per-rank resident budget the record ran under and the store runs
	// it sealed.  OPTIONAL: all omitted for resident records, so
	// pre-existing documents stay byte-identical (the same additive
	// pattern as Fault).
	MemBudget   int64 `json:"mem_budget,omitempty"`
	SpilledRuns int64 `json:"spilled_runs,omitempty"`
	SpillBytes  int64 `json:"spill_bytes,omitempty"`
	// Phases holds the per-superstep breakdown of the first repetition,
	// keyed by phase name (LocalSort, Histogram, Exchange, Merge, Other).
	Phases map[string]PhaseStat `json:"phases"`
	Totals Totals               `json:"totals"`
}

// Key identifies the configuration a record measures; compare matches
// records across documents by it.
func (r Record) Key() string {
	return fmt.Sprintf("%s/p=%d/n=%d/%s", r.Algorithm, r.P, r.PerRank, r.Workload)
}

// linkMap converts per-link tallies to the JSON map form, omitting idle
// classes.
func linkMap(tallies [simnet.NumLinkClasses]LinkTally) map[string]LinkTally {
	out := make(map[string]LinkTally)
	for _, lc := range simnet.LinkClasses {
		if t := tallies[lc]; t != (LinkTally{}) {
			out[lc.String()] = t
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// NewRecord builds a record from a run's repetition makespans and the
// first repetition's cross-rank summary.
func NewRecord(algorithm string, p, perRank int, workload string, makespans []time.Duration, s Summary) Record {
	phases := make(map[string]PhaseStat, int(NumPhases))
	for ph := Phase(0); ph < NumPhases; ph++ {
		st := PhaseStat{
			MeanNS: int64(s.Times[ph]),
			MaxNS:  int64(s.MaxTimes[ph]),
			Links:  linkMap(s.Links[ph]),
		}
		if st.MeanNS == 0 && st.MaxNS == 0 && st.Links == nil {
			continue
		}
		phases[ph.String()] = st
	}
	var fs *FaultStat
	if s.Fault.Any() {
		fs = &FaultStat{FaultTally: s.Fault, Survivors: s.Survivors}
	}
	return Record{
		Algorithm:       algorithm,
		P:               p,
		PerRank:         perRank,
		Workload:        workload,
		Reps:            len(makespans),
		Makespan:        NewDurationStat(makespans),
		Iterations:      s.MaxIterations,
		Probes:          s.Probes,
		Imbalance:       Imbalance{Time: round3(s.TimeImbalance), Output: round3(s.OutputImbalance)},
		Exchange:        s.ExchangeAlg,
		LocalSortKernel: s.LocalSortKernel,
		Threads:         s.Threads,
		Fault:           fs,
		Rebalances:      s.Rebalances,
		RebalanceRounds: s.RebalanceRounds,
		RebalanceBytes:  s.RebalanceBytes,
		RebalanceNS:     s.RebalanceNS,
		SpilledRuns:     s.SpilledRuns,
		SpillBytes:      s.SpillBytes,
		Phases:          phases,
		Totals: Totals{
			Links:          linkMap(s.TotalLinks()),
			ExchangedBytes: s.ExchangedBytes,
		},
	}
}

// round3 keeps imbalance factors stable across platforms (3 decimals).
func round3(f float64) float64 {
	return float64(int64(f*1000+0.5)) / 1000
}

// Encode writes d as stable, indented JSON: struct fields in declaration
// order, map keys sorted (encoding/json's guarantee), trailing newline.
func Encode(w io.Writer, d Document) error {
	d.Schema = SchemaVersion
	sort.SliceStable(d.Records, func(i, j int) bool { return d.Records[i].Key() < d.Records[j].Key() })
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Decode reads a document and verifies its schema version.
func Decode(r io.Reader) (Document, error) {
	var d Document
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return Document{}, fmt.Errorf("metrics: decoding document: %w", err)
	}
	if d.Schema != SchemaVersion {
		return Document{}, fmt.Errorf("metrics: schema %q is not %q", d.Schema, SchemaVersion)
	}
	return d, nil
}
