package rma

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/simnet"
)

// tagA and tagB are the protocol tag pairs of the tests' windows.
const (
	tagA = comm.RMACountsTag
	tagB = comm.RMADataTag
)

// runWorld executes fn on p ranks and fails the test on error.
func runWorld(t *testing.T, p int, model *simnet.CostModel, fn func(c *comm.Comm) error) *comm.World {
	t.Helper()
	w, err := comm.NewWorld(p, model)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(fn); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestConcurrentDisjointPuts is the subsystem's core contract under the race
// detector: 16 ranks concurrently put into disjoint regions of every peer's
// window, every rank consumes the 15 notifications, and then observes all 16
// contributions.  The put is a direct cross-goroutine memory write; the
// notification is the only ordering — any missing happens-before edge is a
// -race failure here.
func TestConcurrentDisjointPuts(t *testing.T) {
	const p = 16
	for _, model := range []*simnet.CostModel{nil, simnet.SuperMUC(4, true), simnet.SuperMUC(4, false)} {
		var mu sync.Mutex
		results := make([][]int, p)
		runWorld(t, p, model, func(c *comm.Comm) error {
			w := New[int](c, tagA, p)
			for i := 1; i < p; i++ {
				dst := (c.Rank() + i) % p
				w.PutNotify(dst, c.Rank(), []int{c.Rank() + 1}, 0)
			}
			w.Local()[c.Rank()] = c.Rank() + 1
			for i := 1; i < p; i++ {
				w.WaitNotify(comm.AnySource)
			}
			got := make([]int, p)
			copy(got, w.Local())
			mu.Lock()
			results[c.Rank()] = got
			mu.Unlock()
			return nil
		})
		for r, got := range results {
			for i, v := range got {
				if v != i+1 {
					t.Fatalf("rank %d window[%d] = %d, want %d", r, i, v, i+1)
				}
			}
		}
	}
}

// TestPutNotify checks the put+notify round trip: payload visibility after
// consuming the notification, and the notification's origin/region/value
// metadata.
func TestPutNotify(t *testing.T) {
	const p = 8
	runWorld(t, p, simnet.SuperMUC(4, true), func(c *comm.Comm) error {
		w := New[uint64](c, tagA, 4)
		next := (c.Rank() + 1) % p
		w.PutNotify(next, 1, []uint64{uint64(100 + c.Rank()), uint64(200 + c.Rank())}, 7)
		n := w.WaitNotify((c.Rank() + p - 1) % p)
		if n.Origin != (c.Rank()+p-1)%p || n.Off != 1 || n.N != 2 || n.Value != 7 {
			t.Errorf("rank %d: notification %+v", c.Rank(), n)
		}
		if got := w.Local()[1]; got != uint64(100+n.Origin) {
			t.Errorf("rank %d: window[1] = %d, want %d", c.Rank(), got, 100+n.Origin)
		}
		return nil
	})
}

// TestMultipleWindows: two live windows on distinct tag pairs cannot
// cross-match their traffic.
func TestMultipleWindows(t *testing.T) {
	runWorld(t, 4, nil, func(c *comm.Comm) error {
		a := New[int](c, tagA, 4)
		b := New[int](c, tagB, 4)
		next := (c.Rank() + 1) % 4
		prev := (c.Rank() + 3) % 4
		a.PutNotify(next, 0, []int{1}, 10)
		b.PutNotify(next, 0, []int{2}, 20)
		if n := b.WaitNotify(prev); n.Value != 20 {
			t.Errorf("window b got notification value %d, want 20", n.Value)
		}
		if n := a.WaitNotify(prev); n.Value != 10 {
			t.Errorf("window a got notification value %d, want 10", n.Value)
		}
		return nil
	})
}

// TestRegionBoundsPanic: out-of-window accesses panic with a diagnostic
// rather than corrupting a neighbour region.
func TestRegionBoundsPanic(t *testing.T) {
	runWorld(t, 2, nil, func(c *comm.Comm) error {
		w := New[int](c, tagA, 4)
		if c.Rank() == 0 {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Error("out-of-bounds put did not panic")
						return
					}
					if !strings.Contains(r.(string), "outside rank") {
						t.Errorf("unhelpful panic message: %v", r)
					}
				}()
				w.PutNotify(1, 3, []int{1, 2}, 0)
			}()
		}
		return nil
	})
}

// TestVirtualClockNoRendezvous: the origin pays the put and notification
// injection costs only, and the target's clock is not charged by an incoming
// put — only consuming the notification synchronizes it.  This is the
// property that makes the one-sided exchange cheaper than a two-sided
// rendezvous.
func TestVirtualClockNoRendezvous(t *testing.T) {
	model := simnet.SuperMUC(4, true)
	runWorld(t, 2, model, func(c *comm.Comm) error {
		w := New[byte](c, tagA, 1<<16)
		base := c.Clock().Now()
		if c.Rank() == 0 {
			putBusy, _ := model.RMAPutCost(0, 1, 1<<16)
			notifyBusy, _ := model.RMANotifyCost(0, 1)
			w.PutNotify(1, 0, make([]byte, 1<<16), 0)
			if got := c.Clock().Now() - base; got != putBusy+notifyBusy {
				t.Errorf("put+notify advanced the origin by %v, want injection costs %v", got, putBusy+notifyBusy)
			}
		} else {
			// Simulate local work far past the put's arrival, then consume.
			c.Clock().Advance(time.Millisecond)
			w.WaitNotify(0)
			if got := c.Clock().Now() - base; got != time.Millisecond {
				t.Errorf("late notify consumption cost %v beyond local work, want 0", got-time.Millisecond)
			}
		}
		return nil
	})
}
