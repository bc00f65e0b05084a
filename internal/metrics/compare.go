package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// DefaultThreshold is the relative growth in a tracked metric that counts
// as a regression: 10%, the gate every perf PR must clear.
const DefaultThreshold = 0.10

// Noise floors: a metric below the floor in both documents is not gated,
// so tiny absolute wobbles on near-empty phases can't fail a build.
const (
	timeFloorNS   = 100_000 // 100µs of virtual time
	bytesFloor    = 4096
	messagesFloor = 64
)

// Delta is one tracked metric's old-vs-new comparison.
type Delta struct {
	// Record is the configuration key (Record.Key).
	Record string
	// Metric names the tracked quantity, e.g. "makespan.mean_ns" or
	// "phase.Exchange.mean_ns".
	Metric string
	// Old and New are the metric values in the respective documents.
	Old, New int64
	// Ratio is New/Old (1.0 = unchanged; +Inf when Old is zero).
	Ratio float64
	// Regressed reports whether New exceeds Old by more than the
	// comparison threshold (and the noise floor).
	Regressed bool
}

// Result is the outcome of comparing two documents.
type Result struct {
	// Deltas lists every tracked metric of every matched record, sorted by
	// (record, metric).
	Deltas []Delta
	// Missing lists record keys present in the old document but absent
	// from the new one — treated as a failure: the schema guarantees
	// coverage of all algorithms.
	Missing []string
	// Threshold is the relative growth that was gated on.
	Threshold float64
}

// Regressed reports whether any tracked metric regressed or any record
// disappeared.
func (r Result) Regressed() bool {
	if len(r.Missing) > 0 {
		return true
	}
	for _, d := range r.Deltas {
		if d.Regressed {
			return true
		}
	}
	return false
}

// Compare diffs every tracked metric of new against old.  threshold <= 0
// selects DefaultThreshold.  Records present only in new are ignored
// (coverage may grow); records present only in old are reported as Missing.
func Compare(old, new Document, threshold float64) (Result, error) {
	if old.Schema != SchemaVersion || new.Schema != SchemaVersion {
		return Result{}, fmt.Errorf("metrics: cannot compare schemas %q and %q", old.Schema, new.Schema)
	}
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	res := Result{Threshold: threshold}
	newByKey := make(map[string]Record, len(new.Records))
	for _, r := range new.Records {
		newByKey[r.Key()] = r
	}
	for _, o := range old.Records {
		n, ok := newByKey[o.Key()]
		if !ok {
			res.Missing = append(res.Missing, o.Key())
			continue
		}
		res.Deltas = append(res.Deltas, compareRecords(o, n, threshold)...)
	}
	sort.Slice(res.Deltas, func(i, j int) bool {
		if res.Deltas[i].Record != res.Deltas[j].Record {
			return res.Deltas[i].Record < res.Deltas[j].Record
		}
		return res.Deltas[i].Metric < res.Deltas[j].Metric
	})
	sort.Strings(res.Missing)
	return res, nil
}

// CompareSubset diffs only the records present in BOTH documents — the
// smoke-subset-aware form the CI gate uses to hold a smoke run (BENCH_ci)
// against the committed full baseline (BENCH_full).  Records of either
// document without a counterpart are ignored rather than reported Missing;
// an empty intersection is an error, because a gate that compares nothing
// would silently pass.
func CompareSubset(old, new Document, threshold float64) (Result, error) {
	oldByKey := make(map[string]bool, len(old.Records))
	for _, r := range old.Records {
		oldByKey[r.Key()] = true
	}
	var both []Record
	for _, r := range new.Records {
		if oldByKey[r.Key()] {
			both = append(both, r)
		}
	}
	if old.Schema == SchemaVersion && new.Schema == SchemaVersion && len(both) == 0 {
		return Result{}, fmt.Errorf("metrics: no common records between documents (subset gate would compare nothing)")
	}
	sub := Document{Schema: new.Schema, Config: new.Config, Records: both}
	res, err := Compare(old, sub, threshold)
	if err != nil {
		return Result{}, err
	}
	res.Missing = nil // subset mode: old-only records are expected
	return res, nil
}

// compareRecords emits the tracked metrics of one matched pair.
func compareRecords(o, n Record, threshold float64) []Delta {
	key := o.Key()
	var out []Delta
	track := func(metric string, old, new, floor int64) {
		d := Delta{Record: key, Metric: metric, Old: old, New: new}
		switch {
		case old == 0 && new == 0:
			d.Ratio = 1
		case old == 0:
			d.Ratio = math.Inf(1)
		default:
			d.Ratio = float64(new) / float64(old)
		}
		if (old > floor || new > floor) && float64(new) > float64(old)*(1+threshold) {
			d.Regressed = true
		}
		out = append(out, d)
	}

	track("makespan.mean_ns", o.Makespan.MeanNS, n.Makespan.MeanNS, timeFloorNS)
	for _, ph := range phaseNames() {
		op, nn := o.Phases[ph], n.Phases[ph]
		if op.MeanNS == 0 && nn.MeanNS == 0 {
			continue
		}
		track("phase."+ph+".mean_ns", op.MeanNS, nn.MeanNS, timeFloorNS)
	}
	ot, nt := sumLinks(o.Totals.Links), sumLinks(n.Totals.Links)
	track("totals.messages", ot.Messages, nt.Messages, messagesFloor)
	track("totals.bytes", ot.Bytes, nt.Bytes, bytesFloor)
	track("totals.network_bytes",
		o.Totals.Links["network"].Bytes, n.Totals.Links["network"].Bytes, bytesFloor)
	// The one-sided counters are optional schema fields: gate them only
	// when the old document already has put traffic, so a baseline written
	// before the fields existed (or before a record used the one-sided
	// exchange) cannot produce a spurious zero-to-nonzero "regression".
	if ot.Puts > 0 {
		track("totals.puts", ot.Puts, nt.Puts, messagesFloor)
		track("totals.put_bytes", ot.PutBytes, nt.PutBytes, bytesFloor)
	}
	// Same additive pattern for the fault block: a baseline lacking it
	// (fault-free, or written before the fields existed) is never gated on
	// it.  The gated quantities are the time the resilience machinery spent,
	// not the raw injection counts — those are fixed by the schedule seed,
	// while the retry/recovery time is what a transport regression inflates.
	if o.Fault != nil {
		var nf FaultStat
		if n.Fault != nil {
			nf = *n.Fault
		}
		track("fault.retry_ns", o.Fault.RetryNS, nf.RetryNS, timeFloorNS)
		track("fault.recovery_ns", o.Fault.RecoveryNS, nf.RecoveryNS, timeFloorNS)
		track("fault.retries", o.Fault.Retries, nf.Retries, messagesFloor)
		track("fault.dedup_hits", o.Fault.Dedup, nf.Dedup, messagesFloor)
	}
	return out
}

// phaseNames returns the phase keys in enum order.
func phaseNames() []string {
	names := make([]string, 0, int(NumPhases))
	for p := Phase(0); p < NumPhases; p++ {
		names = append(names, p.String())
	}
	return names
}

// sumLinks totals a record's per-class link tallies.
func sumLinks(links map[string]LinkTally) LinkTally {
	var t LinkTally
	for _, l := range links {
		t.Add(l)
	}
	return t
}

// Report writes a human-readable delta table: regressions first, then the
// largest improvements, then a one-line verdict.
func (r Result) Report(w io.Writer) {
	for _, k := range r.Missing {
		fmt.Fprintf(w, "MISSING  %s (present in old document, absent in new)\n", k)
	}
	var regressed, improved int
	for _, d := range r.Deltas {
		if d.Regressed {
			regressed++
			fmt.Fprintf(w, "REGRESS  %-40s %-26s %12d -> %-12d (%+.1f%%)\n",
				d.Record, d.Metric, d.Old, d.New, 100*(d.Ratio-1))
		}
	}
	for _, d := range r.Deltas {
		if !d.Regressed && d.Ratio < 1-r.Threshold {
			improved++
			fmt.Fprintf(w, "improve  %-40s %-26s %12d -> %-12d (%+.1f%%)\n",
				d.Record, d.Metric, d.Old, d.New, 100*(d.Ratio-1))
		}
	}
	fmt.Fprintf(w, "compared %d metrics: %d regressed (> %+.0f%%), %d improved, %d missing\n",
		len(r.Deltas), regressed, 100*r.Threshold, improved, len(r.Missing))
}
