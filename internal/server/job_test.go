package server

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
)

// TestJobPathPinned drives every kind of job the runner serves — a lone
// generated job, a batch of inline jobs, a spilled job and a fault job that
// loses a rank under shrink recovery — on one server, in order, and pins
// every JobStatus field the runner sets, the ring document each job leaves,
// and the /v1/metrics counters the runs add up to.
func TestJobPathPinned(t *testing.T) {
	scratch := t.TempDir()
	s := newTestServer(Config{P: 4, QuotaRate: 1000, QuotaBurst: 1000, ScratchDir: scratch})
	defer s.Close()

	rng := rand.New(rand.NewSource(50))
	inline := func(n int) []uint64 {
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = rng.Uint64()
		}
		return ks
	}
	var fault JobSpec
	if err := json.Unmarshal([]byte(`{"n":800,"p":4,"model":"pgas","fault":"die=3@1,seed=7","recovery":"shrink"}`), &fault); err != nil {
		t.Fatal(err)
	}

	type docWant struct {
		alg, workload string
		memBudget     int64
	}
	rows := []struct {
		name  string
		specs []JobSpec
		want  JobStatus // N and P are per job; times, makespan and runs are checked apart
		doc   docWant
	}{
		{"solo", []JobSpec{{N: 3000, Dist: "zipf", Seed: 9, P: 4}},
			JobStatus{State: StateDone, Algorithm: "dhsort", Verified: true, Survivors: 4},
			docWant{"dhsort", "zipf", 0}},
		{"batch", []JobSpec{{Keys: inline(300), P: 4}, {Keys: inline(17), P: 4}, {Keys: inline(1000), P: 4}},
			JobStatus{State: StateDone, Algorithm: "dhsort-batch", Batched: true, BatchSize: 3, PoolHit: true,
				Verified: true, Survivors: 4},
			docWant{"dhsort-batch", "inline", 0}},
		{"spill", []JobSpec{{N: 4096, Dist: "zipf", Seed: 11, P: 4, Spill: true}},
			JobStatus{State: StateDone, Algorithm: "dhsort", PoolHit: true, Spilled: true, Verified: true, Survivors: 4},
			docWant{"dhsort", "zipf", 1024}},
		{"fault", []JobSpec{fault},
			JobStatus{State: StateDone, Algorithm: "dhsort", Verified: true, Survivors: 3},
			docWant{"dhsort", "uniform", 0}},
	}

	var spilledRuns int64
	for _, row := range rows {
		var batch []*job
		var want []JobStatus
		for i, sp := range row.specs {
			w := row.want
			w.ID, w.Tenant, w.N, w.P = row.name+ids(i), "t", sp.n(), sp.P
			want = append(want, w)
			batch = append(batch, mkJob(t, s, w.ID, sp))
		}
		s.runBatch(batch)

		docs := map[string]RingEntry{}
		for _, e := range s.MetricsSnapshot().Jobs {
			docs[e.ID] = e
		}
		var makespan int64
		for _, w := range want {
			st, _ := s.Status(w.ID)
			out, _, err := s.Result(w.ID)
			if err != nil || len(out) != w.N {
				t.Errorf("%s: result of %d keys, %v; want %d keys", w.ID, len(out), err, w.N)
			}
			if st.SubmittedAt <= 0 || st.StartedAt < st.SubmittedAt || st.FinishedAt < st.StartedAt {
				t.Errorf("%s: times submitted %d, started %d, finished %d out of order",
					w.ID, st.SubmittedAt, st.StartedAt, st.FinishedAt)
			}
			if st.MakespanNS <= 0 || makespan != 0 && st.MakespanNS != makespan {
				t.Errorf("%s: makespan %d, want > 0 and shared by the batch (%d)", w.ID, st.MakespanNS, makespan)
			}
			makespan = st.MakespanNS
			if (st.SpilledRuns > 0) != w.Spilled {
				t.Errorf("%s: %d spilled runs, spilled %v", w.ID, st.SpilledRuns, w.Spilled)
			}
			spilledRuns += st.SpilledRuns

			e, ok := docs[w.ID]
			if !ok || e.Tenant != "t" || len(e.Doc.Records) != 1 {
				t.Fatalf("%s: ring entry %+v, want one record", w.ID, e)
			}
			rec := e.Doc.Records[0]
			if rec.Algorithm != row.doc.alg || rec.Workload != row.doc.workload || rec.MemBudget != row.doc.memBudget ||
				rec.Elastic != nil || rec.SpilledRuns != st.SpilledRuns || rec.P != w.P {
				t.Errorf("%s: document algorithm %q, workload %q, mem_budget %d, elastic %v, spilled_runs %d, p %d; "+
					"want %q, %q, %d, nil, %d, %d", w.ID, rec.Algorithm, rec.Workload, rec.MemBudget, rec.Elastic,
					rec.SpilledRuns, rec.P, row.doc.alg, row.doc.workload, row.doc.memBudget, st.SpilledRuns, w.P)
			}

			st.SubmittedAt, st.StartedAt, st.FinishedAt, st.MakespanNS, st.SpilledRuns = 0, 0, 0, 0, 0
			if st != w {
				t.Errorf("%s: status\n got  %+v\n want %+v", w.ID, st, w)
			}
		}
	}
	if left, err := os.ReadDir(scratch); err != nil || len(left) != 0 {
		t.Errorf("scratch root holds %d entries after the spilled job (%v), want none", len(left), err)
	}

	body, err := json.Marshal(s.MetricsSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var counters map[string]json.RawMessage
	if err := json.Unmarshal(body, &counters); err != nil {
		t.Fatal(err)
	}
	var spillBytes int64
	if err := json.Unmarshal(counters["spill_bytes"], &spillBytes); err != nil || spillBytes <= 0 {
		t.Errorf("spill_bytes = %s, want > 0", counters["spill_bytes"])
	}
	for name, want := range map[string]int64{"jobs_done": 6, "jobs_failed": 0, "batches": 1, "batched_jobs": 3,
		"spilled_jobs": 1, "spilled_runs": spilledRuns} {
		var got int64
		if err := json.Unmarshal(counters[name], &got); err != nil || got != want {
			t.Errorf("/v1/metrics %s = %s, want %d", name, counters[name], want)
		}
	}
}
