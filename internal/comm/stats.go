package comm

import "dhsort/internal/simnet"

// Stats accumulates one rank's communication volume, broken down by link
// class.
//
// Ownership (audited for the race detector): a Stats value is confined to
// its rank goroutine for the duration of World.Run — record is only called
// from Comm.send on that goroutine, and Split shares the same pointer
// because child communicators run on the same goroutine.  The World takes a
// snapshot copy under World.mu when the rank's function returns, so
// World-side aggregation (TotalStats, RankStats) never reads a live
// accumulator.  Do not retain the pointer returned by Comm.Stats past the
// rank function's lifetime unless all ranks have finished (e.g. after
// World.Run returns, which establishes the necessary happens-before edge).
//
// Pooled persistent worlds extend the audit across jobs: at the end of
// every PersistentWorld.Execute, each rank goroutine — after the post-job
// quiesce barrier — snapshots its accumulator into the World under
// World.mu and then ZEROES it, still on the owning goroutine, before the
// next job can start.  Consequently a pooled world's stats reset between
// jobs: RankStats/TotalStats report the last job only, and a job's metrics
// document can never inherit message counts, byte volumes or fault tallies
// from an earlier tenant's job on the same warm world (tested by
// TestPersistentWorldStatsResetBetweenJobs).
type Stats struct {
	// Links is the traffic per simnet.LinkClass.
	Links [simnet.NumLinkClasses]LinkTally

	// Fault tallies the fault plane's activity on this rank (zero in
	// fault-free runs).
	Fault FaultCounters
}

// LinkTally tallies one link class's traffic: two-sided messages and bytes,
// plus one-sided puts, put volume and notifications (internal/rma traffic,
// accounted apart so ablations can attribute volume to the transport that
// carried it).  The JSON names are the metrics schema's; the one-sided
// counters are omitted when zero, so documents from runs without RMA
// traffic keep the layout they had before the fields existed.
type LinkTally struct {
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
	Puts     int64 `json:"puts,omitempty"`
	PutBytes int64 `json:"put_bytes,omitempty"`
	Notifies int64 `json:"notifies,omitempty"`
}

// Add accumulates o into t.
func (t *LinkTally) Add(o LinkTally) {
	t.Messages += o.Messages
	t.Bytes += o.Bytes
	t.Puts += o.Puts
	t.PutBytes += o.PutBytes
	t.Notifies += o.Notifies
}

func (t LinkTally) sub(o LinkTally) LinkTally {
	return LinkTally{
		Messages: t.Messages - o.Messages,
		Bytes:    t.Bytes - o.Bytes,
		Puts:     t.Puts - o.Puts,
		PutBytes: t.PutBytes - o.PutBytes,
		Notifies: t.Notifies - o.Notifies,
	}
}

// FaultCounters tallies injected faults and the resilience work they caused
// on one rank.  Same ownership rules as Stats: rank-goroutine-confined,
// snapshotted by the World at rank exit.  The JSON names are the metrics
// schema's fault block; every counter is omitted when zero.
type FaultCounters struct {
	Drops    int64 `json:"drops,omitempty"`      // transmission attempts lost by the injector
	Dups     int64 `json:"dups,omitempty"`       // duplicate deliveries injected
	Delays   int64 `json:"delays,omitempty"`     // messages given extra arrival jitter
	Reorders int64 `json:"reorders,omitempty"`   // messages jumped ahead of the receive queue
	Retries  int64 `json:"retries,omitempty"`    // retransmissions after a modelled timeout
	RetryNS  int64 `json:"retry_ns,omitempty"`   // virtual time spent waiting out retransmission timeouts
	Dedup    int64 `json:"dedup_hits,omitempty"` // receiver-side duplicate discards
}

// Any reports whether any fault-plane activity was recorded.
func (f FaultCounters) Any() bool {
	return f != FaultCounters{}
}

// Add accumulates o into f.
func (f *FaultCounters) Add(o FaultCounters) {
	f.Drops += o.Drops
	f.Dups += o.Dups
	f.Delays += o.Delays
	f.Reorders += o.Reorders
	f.Retries += o.Retries
	f.RetryNS += o.RetryNS
	f.Dedup += o.Dedup
}

func (f FaultCounters) sub(o FaultCounters) FaultCounters {
	return FaultCounters{
		Drops:    f.Drops - o.Drops,
		Dups:     f.Dups - o.Dups,
		Delays:   f.Delays - o.Delays,
		Reorders: f.Reorders - o.Reorders,
		Retries:  f.Retries - o.Retries,
		RetryNS:  f.RetryNS - o.RetryNS,
		Dedup:    f.Dedup - o.Dedup,
	}
}

func (s *Stats) record(lc simnet.LinkClass, bytes int) {
	s.Links[lc].Messages++
	s.Links[lc].Bytes += int64(bytes)
}

// RecordPut accounts one one-sided put of the given priced volume on the
// link class.  Called by internal/rma from the origin rank's goroutine (same
// confinement rules as record).
func (s *Stats) RecordPut(lc simnet.LinkClass, bytes int) {
	s.Links[lc].Puts++
	s.Links[lc].PutBytes += int64(bytes)
}

// RecordNotify accounts one put-notification on the link class.
func (s *Stats) RecordNotify(lc simnet.LinkClass) {
	s.Links[lc].Notifies++
}

// Add accumulates o into s.  The caller must own both values (the World
// calls it under its mutex on snapshot copies).
func (s *Stats) Add(o *Stats) {
	for lc := range s.Links {
		s.Links[lc].Add(o.Links[lc])
	}
	s.Fault.Add(o.Fault)
}

// Sub returns s - o per field, for delta accounting between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	var d Stats
	for lc := range s.Links {
		d.Links[lc] = s.Links[lc].sub(o.Links[lc])
	}
	d.Fault = s.Fault.sub(o.Fault)
	return d
}

// Total returns the traffic summed over all link classes.
func (s *Stats) Total() LinkTally {
	var t LinkTally
	for _, l := range s.Links {
		t.Add(l)
	}
	return t
}

// TotalMessages returns the message count across all link classes.
func (s *Stats) TotalMessages() int64 { return s.Total().Messages }

// TotalBytes returns the byte volume across all link classes.
func (s *Stats) TotalBytes() int64 { return s.Total().Bytes }
