package comm

import (
	"sync/atomic"
	"testing"

	"dhsort/internal/fault"
)

// reduceLoop runs rounds of the reduction's message schedule — what
// AllreduceInPlace runs in worlds with a cost model or a fault plan — with a
// payload that shrinks and grows again, overwriting the vector right after
// every call (a payload still aliased by a peer would show as a wrong sum,
// and as a data race under -race).  It returns how many recycled buffers the
// rank ends up holding.
func reduceLoop(t *testing.T, c *Comm, rounds int) int {
	add := func(a, b int64) int64 { return a + b }
	p := int64(c.Size())
	buf := make([]int64, 17)
	for r := 0; r < rounds; r++ {
		data := buf[:1+(r*5)%len(buf)]
		for i := range data {
			data[i] = int64(c.Rank()) + int64(r*i)
		}
		got := allreduceMessages(c, data, add)
		for i, v := range got {
			if want := p*(p-1)/2 + p*int64(r*i); v != want {
				t.Errorf("p=%d rank=%d round %d: element %d is %d, want %d", p, c.Rank(), r, i, v, want)
				return -1
			}
			data[i] = -1
		}
	}
	return len(freeListOf[[]int64](c).free)
}

func TestAllreduceInPlaceRecyclesBuffers(t *testing.T) {
	// A rank whose last hop is a send can end with an empty list; the
	// buffers it used are then on its partners' lists.
	for _, p := range testSizes[1:] {
		var held atomic.Int64
		run(t, p, func(c *Comm) error {
			held.Add(int64(reduceLoop(t, c, 40)))
			return nil
		})
		if held.Load() == 0 {
			t.Errorf("p=%d: no rank holds a recycled buffer after 40 fault-free reductions", p)
		}
	}
}

// TestAllreduceInPlaceCopiesUnderMessageFaults: when the injector
// adjudicates messages, an injected duplicate is a second envelope with the
// same payload, so the reduction must ship private copies — no rank may ever
// receive (and so hold) a recycled buffer — and the transport's accounting
// stays exact.
func TestAllreduceInPlaceCopiesUnderMessageFaults(t *testing.T) {
	plan := fault.Plan{Seed: 20260807, DropRate: 0.15, DupRate: 0.15}
	for _, p := range []int{2, 5, 8, 13} {
		w := runFaults(t, p, nil, plan, func(c *Comm) error {
			if held := reduceLoop(t, c, 40); held > 0 {
				t.Errorf("p=%d rank=%d: holds %d recycled buffers under message faults", p, c.Rank(), held)
			}
			return nil
		})
		st := w.TotalStats()
		if st.Fault.Drops == 0 || st.Fault.Dups == 0 {
			t.Errorf("p=%d: the plan injected nothing: %+v", p, st.Fault)
		}
		if st.Fault.Dedup != st.Fault.Dups {
			t.Errorf("p=%d: %d duplicates injected but %d discarded", p, st.Fault.Dups, st.Fault.Dedup)
		}
	}
}

// TestAllreduceInPlaceWarmAllocatesNothing pins both transports of the
// reduction: AllocsPerRun counts the mallocs of the whole process, so with
// every other rank making the same calls it pins the collective — 8 ranks,
// no allocation anywhere once the rendezvous state, or the free lists,
// mailbox queues and buffers of the 24-message schedule, have reached their
// working size.
func TestAllreduceInPlaceWarmAllocatesNothing(t *testing.T) {
	const p, warm, runs = 8, 10, 50
	add := func(a, b int64) int64 { return a + b }
	for _, tr := range []struct {
		name   string
		reduce func(c *Comm, data []int64, op func(a, b int64) int64) []int64
	}{
		{"rendezvous", AllreduceInPlace[int64]},
		{"messages", allreduceMessages[int64]},
	} {
		run(t, p, func(c *Comm) error {
			data := make([]int64, p-1)
			reduce := func() { tr.reduce(c, data, add) }
			for i := 0; i < warm; i++ {
				reduce()
			}
			if c.Rank() != 0 {
				for i := 0; i < runs+1; i++ { // AllocsPerRun makes one extra warm-up call
					reduce()
				}
				return nil
			}
			if allocs := testing.AllocsPerRun(runs, reduce); allocs != 0 {
				t.Errorf("%s: a warm reduction at P=%d allocates %.2f times per call", tr.name, p, allocs)
			}
			return nil
		})
	}
}

// benchmarkP64 times b.N calls of one collective on every rank of a
// 64-rank real-time world; op builds a rank's call, with its buffers.
func benchmarkP64(b *testing.B, op func(c *Comm) func()) {
	w, err := NewWorld(64, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	err = w.Run(func(c *Comm) error {
		call := op(c)
		for i := 0; i < b.N; i++ {
			call()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllreduceInPlaceP64 is one refinement round's collective at the
// sort-latency shape: 64 ranks reduce P-1 int64 counters (a rendezvous).
func BenchmarkAllreduceInPlaceP64(b *testing.B) {
	add := func(a, b int64) int64 { return a + b }
	benchmarkP64(b, func(c *Comm) func() {
		data := make([]int64, c.Size()-1)
		return func() { AllreduceInPlace(c, data, add) }
	})
}

// BenchmarkAllreduceInPlaceMessagesP64 is the same reduction over its
// message schedule, the transport of worlds with a cost model or faults.
func BenchmarkAllreduceInPlaceMessagesP64(b *testing.B) {
	add := func(a, b int64) int64 { return a + b }
	benchmarkP64(b, func(c *Comm) func() {
		data := make([]int64, c.Size()-1)
		return func() { allreduceMessages(c, data, add) }
	})
}

// BenchmarkBarrierP64 is one BARRIER of 64 ranks (a rendezvous).
func BenchmarkBarrierP64(b *testing.B) {
	benchmarkP64(b, func(c *Comm) func() { return func() { Barrier(c) } })
}
