package metrics

import (
	"bytes"
	"os"
	"testing"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/simnet"
)

// foldRank drives one recorder through every phase and every Add*/Set*
// method, with values scaled by the rank so that no two ranks agree on any
// counter.  The transport counters are written into the stats accumulator,
// as comm does, and reach the recorder at the phase boundaries.
func foldRank(rank int, alg, kernel string, threads int) *Recorder {
	k := int64(rank + 1)
	clock := simnet.NewClock(simnet.SuperMUC(16, true))
	var st comm.Stats
	r := NewRecorder(clock, &st)
	for ph := Phase(0); ph < NumPhases; ph++ {
		r.Enter(ph)
		clock.Advance(time.Duration(k*int64(ph+1)) * time.Millisecond)
		for lc := range st.Links {
			n := k * int64(ph+1) * int64(lc+1)
			st.Links[lc].Add(LinkTally{Messages: n, Bytes: 100 * n})
			if ph == Exchange {
				st.Links[lc].Add(LinkTally{Puts: n, PutBytes: 1000 * n, Notifies: 2 * n})
			}
		}
	}
	st.Fault = comm.FaultCounters{Drops: k, Dups: 2 * k, Delays: 3 * k, Reorders: 4 * k, Retries: 5 * k, RetryNS: 6000 * k, Dedup: 7 * k}
	r.Finish()
	for i := 0; i < rank+3; i++ {
		r.AddIteration()
	}
	r.SetProbes([]int{2, 8, 4}[rank])
	r.AddExchangedBytes(1 << (10 + rank))
	r.SetElements([]int{100, 300, 200}[rank])
	r.SetExchangeAlg(alg)
	r.SetLocalSort(kernel, threads)
	r.AddCheckpoint(500 * k)
	r.AddCheckpoint(50 * k)
	r.AddRecovery(time.Duration(700*k) * time.Microsecond)
	r.AddDeath()
	r.AddAgreeRounds(3 * rank)
	r.AddShrink(time.Duration(11*k)*time.Microsecond, []int{5, 7, 6}[rank])
	r.AddRebalance([]int{1, 4, 2}[rank], 300*k, time.Duration(13*k)*time.Microsecond)
	if rank == 1 {
		r.AddRebalance(2, 30, time.Microsecond)
	}
	r.AddSpill(rank+1, 4096*k)
	r.AddStall(time.Duration(17*k) * time.Microsecond)
	return r
}

// TestSummaryFoldsEveryField pins the cross-rank fold of every counter a
// recorder keeps: maxima, sums, the first non-empty choice, the means and
// the imbalance factors, and the exact bytes of the record document built
// from the summary.
func TestSummaryFoldsEveryField(t *testing.T) {
	recs := []*Recorder{
		foldRank(0, "", "", 0),
		foldRank(1, "bruck", "radix", 2),
		foldRank(2, "one-factor", "introsort", 4),
	}
	s := Summarize(recs)

	var want Summary
	want.Ranks = 3
	for ph := Phase(0); ph < NumPhases; ph++ {
		// Rank r spends (r+1)(ph+1) ms in phase ph: mean 2(ph+1), max 3(ph+1).
		want.Times[ph] = time.Duration(2*(ph+1)) * time.Millisecond
		want.MaxTimes[ph] = time.Duration(3*(ph+1)) * time.Millisecond
		for lc := range want.Links[ph] {
			// Traffic written during phase ph is closed into it, summed
			// over k = 1, 2, 3.
			n := 6 * int64(ph+1) * int64(lc+1)
			want.Links[ph][lc] = LinkTally{Messages: n, Bytes: 100 * n}
			if ph == Exchange {
				want.Links[ph][lc].Puts = n
				want.Links[ph][lc].PutBytes = 1000 * n
				want.Links[ph][lc].Notifies = 2 * n
			}
		}
	}
	want.Iterations = 5
	want.Probes = 8
	want.ExchangedBytes = 1<<10 + 1<<11 + 1<<12
	// Ranks ran 15, 30 and 45 ms; outputs 100, 300, 200: both max/mean 1.5.
	want.TimeImbalance = 1.5
	want.OutputImbalance = 1.5
	want.ExchangeAlg = "bruck"
	want.LocalSortKernel = "radix"
	want.Threads = 2
	want.Fault = FaultTally{
		FaultCounters: comm.FaultCounters{
			Drops: 6, Dups: 12, Delays: 18, Reorders: 24, Retries: 30, RetryNS: 36000, Dedup: 42,
		},
		Checkpoints: 6, CheckpointBytes: 3300,
		Recoveries: 3, RecoveryNS: 4_200_000,
		Stalls: 3, StallNS: 102_000,
		Deaths: 3, AgreeRounds: 9, Shrinks: 3, ShrinkNS: 66_000,
	}
	want.Survivors = 7
	want.Rebalances = 2
	want.RebalanceRounds = 6
	want.RebalanceBytes = 1830
	want.RebalanceNS = 79_000
	want.SpilledRuns = 6
	want.SpillBytes = 4096 * 6
	if s != want {
		t.Errorf("Summarize =\n%+v\nwant\n%+v", s, want)
	}

	rec := NewRecord("dhsort", 3, 200, "uniform", []time.Duration{30 * time.Millisecond, 20 * time.Millisecond}, s)
	var got bytes.Buffer
	if err := Encode(&got, Document{Config: RunConfig{Suite: "full", Model: "supermuc-pgas", RanksPerNode: 16, Reps: 2, Seed: 1}, Records: []Record{rec}}); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/fold_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), golden) {
		t.Errorf("record document differs from testdata/fold_v1.json:\n%s", got.Bytes())
	}
}
