package comm

import (
	"strings"
	"testing"
	"time"

	"dhsort/internal/fault"
	"dhsort/internal/simnet"
)

// faultyPlan is the transport-stress schedule used across these tests: every
// message fault class at a rate high enough to fire constantly.
var faultyPlan = fault.Plan{
	Seed:        7,
	DropRate:    0.1,
	DupRate:     0.1,
	DelayRate:   0.1,
	MaxDelay:    20 * time.Microsecond,
	ReorderRate: 0.1,
}

// runFaults executes fn on a fresh world under the plan and fails on error.
func runFaults(t *testing.T, p int, model *simnet.CostModel, plan fault.Plan, fn func(c *Comm) error) *World {
	t.Helper()
	w, err := NewWorldWithFaults(p, model, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(fn); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestFaultyTransportFIFO pins the reliable-transport contract: under drops,
// duplication, delay and reordering, every flow still delivers every payload
// exactly once, in send order.
func TestFaultyTransportFIFO(t *testing.T) {
	const msgs = 64
	for _, p := range []int{2, 3, 8, 16} {
		w := runFaults(t, p, simnet.SuperMUC(4, true), faultyPlan, func(c *Comm) error {
			// All-pairs: every rank streams msgs messages to every other rank
			// on two interleaved tags, then drains the same from everyone.
			for i := 0; i < msgs; i++ {
				for dst := 0; dst < c.Size(); dst++ {
					if dst == c.Rank() {
						continue
					}
					SendOne(c, dst, i%2, c.Rank()*msgs+i)
				}
			}
			for src := 0; src < c.Size(); src++ {
				if src == c.Rank() {
					continue
				}
				for i := 0; i < msgs; i++ {
					got := RecvOne[int](c, src, i%2)
					// Per-(src, tag) flows are FIFO: on tag i%2 the i-th
					// receive must be the i-th send.
					if got != src*msgs+i {
						t.Errorf("p=%d rank %d: from %d tag %d got %d, want %d", p, c.Rank(), src, i%2, got, src*msgs+i)
					}
				}
			}
			return nil
		})
		st := w.TotalStats()
		if !st.Fault.Any() {
			t.Errorf("p=%d: transport stress injected nothing: %+v", p, st.Fault)
		}
		if st.Fault.Drops != st.Fault.Retries {
			t.Errorf("p=%d: every drop must cost a retry: drops=%d retries=%d", p, st.Fault.Drops, st.Fault.Retries)
		}
		if st.Fault.Dedup != st.Fault.Dups {
			// putPair + the delivery sweep make dedup exact: every injected
			// duplicate is discarded at its flow's delivery, never later.
			t.Errorf("p=%d: %d duplicates injected but %d discarded", p, st.Fault.Dups, st.Fault.Dedup)
		}
	}
}

// TestFaultyTransportDeterminism pins the bit-reproducibility contract: two
// runs of the same program under the same plan produce identical fault
// counters, traffic totals and virtual makespans, regardless of goroutine
// interleaving.
func TestFaultyTransportDeterminism(t *testing.T) {
	once := func() (Stats, time.Duration) {
		w := runFaults(t, 8, simnet.SuperMUC(4, true), faultyPlan, func(c *Comm) error {
			for i := 0; i < 32; i++ {
				next := (c.Rank() + 1) % c.Size()
				prev := (c.Rank() + c.Size() - 1) % c.Size()
				SendOne(c, next, 3, c.Rank()+i)
				if got := RecvOne[int](c, prev, 3); got != prev+i {
					t.Errorf("rank %d: got %d want %d", c.Rank(), got, prev+i)
				}
				v := AllreduceOne(c, i, func(a, b int) int { return a + b })
				if v != i*c.Size() {
					t.Errorf("rank %d: allreduce %d want %d", c.Rank(), v, i*c.Size())
				}
			}
			return nil
		})
		return w.TotalStats(), w.Makespan()
	}
	s1, m1 := once()
	s2, m2 := once()
	if s1 != s2 {
		t.Errorf("fault schedule not deterministic:\n%+v\n%+v", s1.Fault, s2.Fault)
	}
	if m1 != m2 {
		t.Errorf("virtual makespan not deterministic: %v vs %v", m1, m2)
	}
}

// TestSelfLinksExemptFromInjection pins the zero-cost self-link rule: a
// rank's messages to itself are local memory moves and must never be
// adjudicated, even under an aggressive schedule.
func TestSelfLinksExemptFromInjection(t *testing.T) {
	plan := faultyPlan
	plan.DropRate = 0.5
	w := runFaults(t, 4, simnet.SuperMUC(4, true), plan, func(c *Comm) error {
		for i := 0; i < 100; i++ {
			SendOne(c, c.Rank(), 9, i)
			if got := RecvOne[int](c, c.Rank(), 9); got != i {
				t.Errorf("rank %d: self-delivery %d want %d", c.Rank(), got, i)
			}
		}
		return nil
	})
	if f := w.TotalStats().Fault; f.Any() {
		t.Errorf("self-only traffic hit the injector: %+v", f)
	}
}

// TestCollectivesSurviveFaults runs the collective algorithms (trees,
// recursive doubling, pairwise exchanges) over the faulty transport: results
// must match the fault-free semantics exactly.
func TestCollectivesSurviveFaults(t *testing.T) {
	for _, p := range []int{2, 5, 8, 13} {
		runFaults(t, p, simnet.SuperMUC(4, true), faultyPlan, func(c *Comm) error {
			if got := AllreduceOne(c, c.Rank()+1, func(a, b int) int { return a + b }); got != p*(p+1)/2 {
				t.Errorf("p=%d rank %d: allreduce got %d", p, c.Rank(), got)
			}
			all := AllgatherOne(c, c.Rank()*11)
			for i, v := range all {
				if v != i*11 {
					t.Errorf("p=%d rank %d: allgather[%d] = %d", p, c.Rank(), i, v)
				}
			}
			counts := make([]int, p)
			payload := make([]int, 0, p)
			for dst := 0; dst < p; dst++ {
				counts[dst] = 1
				payload = append(payload, c.Rank()*100+dst)
			}
			recv, _ := AlltoallvWith(c, payload, counts, AlltoallPairwise, 1)
			for src := 0; src < p; src++ {
				if recv[src] != src*100+c.Rank() {
					t.Errorf("p=%d rank %d: alltoallv from %d = %d", p, c.Rank(), src, recv[src])
				}
			}
			return nil
		})
	}
}

// TestWatchdogDetectsDeadSender pins the liveness-detection path: a receive
// that can never be satisfied (the peer exited without sending) must abort
// the world with a watchdog diagnostic instead of hanging forever.
func TestWatchdogDetectsDeadSender(t *testing.T) {
	w, err := NewWorldWithFaults(2, nil, fault.Plan{Watchdog: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			RecvOne[int](c, 1, 4) // rank 1 never sends
		}
		return nil
	})
	if err == nil {
		t.Fatal("dead sender went undetected")
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Errorf("error %q does not name the watchdog", err)
	}
}

// TestReserveProtocolTagExhaustion pins the fixed protocol tag table that
// replaced the per-communicator tag allocator (which a long-lived world
// exhausted): every tag is distinct, above the sendrecv rounds' band
// [UserTagLimit, UserTagLimit+P) of any world up to 2^20 ranks, and below the
// recovery band.
func TestReserveProtocolTagExhaustion(t *testing.T) {
	const maxRanks = 1 << 20
	table := []int{FaultControlTag, RMACountsTag, RMACountsTag + 1, RMADataTag, RMADataTag + 1}
	seen := map[int]bool{}
	for _, tag := range table {
		if seen[tag] {
			t.Errorf("tag %d appears twice in the table", tag)
		}
		seen[tag] = true
		if tag < UserTagLimit+maxRanks {
			t.Errorf("tag %d inside the sendrecv rounds' band [%d, %d)", tag, UserTagLimit, UserTagLimit+maxRanks)
		}
		if tag >= ulfmTagBase {
			t.Errorf("tag %d inside the recovery band [%d, ∞)", tag, ulfmTagBase)
		}
	}
}

// TestDropOnlyPlanRetriesEveryDrop checks the transport's fault counters
// under a drop-only plan: every lost attempt is retransmitted, and nothing
// else is injected.
func TestDropOnlyPlanRetriesEveryDrop(t *testing.T) {
	w := runFaults(t, 2, simnet.SuperMUC(2, true), fault.Plan{Seed: 3, DropRate: 0.3}, func(c *Comm) error {
		for i := 0; i < 200; i++ {
			SendOne(c, 1-c.Rank(), 0, i)
			RecvOne[int](c, 1-c.Rank(), 0)
		}
		return nil
	})
	for r, st := range w.RankStats() {
		f := st.Fault
		if f.Drops == 0 || f.Drops != f.Retries {
			t.Errorf("rank %d: drops=%d retries=%d, want equal and positive", r, f.Drops, f.Retries)
		}
		if f.RetryNS <= 0 || f.Dups != 0 || f.Delays != 0 || f.Reorders != 0 || f.Dedup != 0 {
			t.Errorf("rank %d: drop-only plan counted %+v", r, f)
		}
	}
}
