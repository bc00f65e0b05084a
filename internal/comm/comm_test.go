package comm

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dhsort/internal/simnet"
)

// sizes exercised by every collective test: powers of two, odd, prime, one.
var testSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 31}

// run executes fn on a fresh real-time world of size p and fails on error.
func run(t *testing.T, p int, fn func(c *Comm) error) *World {
	t.Helper()
	w, err := NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(fn); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0, nil); err == nil {
		t.Error("size 0 must be rejected")
	}
	if _, err := NewWorld(-3, nil); err == nil {
		t.Error("negative size must be rejected")
	}
	if _, err := NewWorld(4, &simnet.CostModel{}); err == nil {
		t.Error("invalid topology must be rejected")
	}
}

func TestPointToPoint(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		// Ring: send rank to the right, receive from the left.
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		Send(c, next, 7, []int{c.Rank(), c.Rank() * 10})
		got := Recv[int](c, prev, 7)
		if len(got) != 2 || got[0] != prev || got[1] != prev*10 {
			t.Errorf("rank %d received %v from %d", c.Rank(), got, prev)
		}
		return nil
	})
}

func TestSendCopiesData(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []int{1, 2, 3}
			Send(c, 1, 0, buf)
			buf[0] = 99 // mutation after send must not be visible
			Send(c, 1, 1, buf)
		} else {
			first := Recv[int](c, 0, 0)
			second := Recv[int](c, 0, 1)
			if first[0] != 1 {
				t.Errorf("send must copy: got %v", first)
			}
			if second[0] != 99 {
				t.Errorf("second message wrong: %v", second)
			}
		}
		return nil
	})
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, 5, []byte("five"))
			Send(c, 1, 3, []byte("three"))
		} else {
			// Receive in the opposite order of sending.
			three := Recv[byte](c, 0, 3)
			five := Recv[byte](c, 0, 5)
			if string(three) != "three" || string(five) != "five" {
				t.Errorf("tag matching broken: %q %q", three, five)
			}
		}
		return nil
	})
}

func TestFIFOPerTag(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		const n = 50
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				Send(c, 1, 0, []int{i})
			}
		} else {
			for i := 0; i < n; i++ {
				if got := Recv[int](c, 0, 0); got[0] != i {
					t.Errorf("FIFO violated: got %d want %d", got[0], i)
				}
			}
		}
		return nil
	})
}

// TestRecvAny: a receive from AnySource matches every sender's message.
func TestRecvAny(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		if c.Rank() == 0 {
			seen := make(map[int]bool)
			for i := 1; i < 4; i++ {
				seen[Recv[int](c, AnySource, 9)[0]] = true
			}
			if len(seen) != 3 || !seen[100] || !seen[200] || !seen[300] {
				t.Errorf("expected one payload from each of ranks 1-3, saw %v", seen)
			}
		} else {
			Send(c, 0, 9, []int{c.Rank() * 100})
		}
		return nil
	})
}

func TestSendRecvOne(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			SendOne(c, 1, 0, "hello")
		} else if got := RecvOne[string](c, 0, 0); got != "hello" {
			t.Errorf("got %q", got)
		}
		return nil
	})
}

func TestNegativeUserTagPanics(t *testing.T) {
	err := func() (err error) {
		w, _ := NewWorld(1, nil)
		return w.Run(func(c *Comm) error {
			Send(c, 0, -1, []int{1})
			return nil
		})
	}()
	if err == nil || !strings.Contains(err.Error(), "non-negative") {
		t.Fatalf("expected tag panic, got %v", err)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	w, _ := NewWorld(3, nil)
	boom := errors.New("boom")
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return boom
		}
		// Other ranks block forever; the abort must unblock them.
		Recv[int](c, AnySource, 0)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("expected boom, got %v", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	w, _ := NewWorld(2, nil)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			panic("kaput")
		}
		Recv[int](c, AnySource, 0)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("expected panic error, got %v", err)
	}
}

func TestBarrier(t *testing.T) {
	for _, p := range testSizes {
		var phase atomic.Int32
		run(t, p, func(c *Comm) error {
			phase.Add(1)
			Barrier(c)
			// After the barrier every rank must have incremented.
			if got := phase.Load(); got != int32(p) {
				t.Errorf("p=%d: rank %d saw phase=%d after barrier", p, c.Rank(), got)
			}
			Barrier(c)
			return nil
		})
	}
}

func TestBcast(t *testing.T) {
	for _, p := range testSizes {
		for root := 0; root < p; root += 1 + p/3 {
			run(t, p, func(c *Comm) error {
				var data []int
				if c.Rank() == root {
					data = []int{42, root, 7}
				}
				got := Bcast(c, root, data)
				if len(got) != 3 || got[0] != 42 || got[1] != root {
					t.Errorf("p=%d root=%d rank=%d: got %v", p, root, c.Rank(), got)
				}
				// Mutating the received buffer must not affect others.
				got[0] = c.Rank()
				return nil
			})
		}
	}
}

func TestBcastOne(t *testing.T) {
	run(t, 5, func(c *Comm) error {
		v := BcastOne(c, 2, c.Rank()*11)
		if v != 22 {
			t.Errorf("rank %d got %d", c.Rank(), v)
		}
		return nil
	})
}

func TestAllreduce(t *testing.T) {
	add := func(a, b int) int { return a + b }
	max := func(a, b int) int {
		if a > b {
			return a
		}
		return b
	}
	for _, p := range testSizes {
		run(t, p, func(c *Comm) error {
			sum := Allreduce(c, []int{c.Rank(), 100}, add)
			wantSum := p * (p - 1) / 2
			if sum[0] != wantSum || sum[1] != 100*p {
				t.Errorf("p=%d rank=%d: sum got %v", p, c.Rank(), sum)
			}
			m := AllreduceOne(c, c.Rank()*3, max)
			if m != 3*(p-1) {
				t.Errorf("p=%d rank=%d: max got %d", p, c.Rank(), m)
			}
			return nil
		})
	}
}

func TestAllreduceInPlace(t *testing.T) {
	add := func(a, b int) int { return a + b }
	for _, p := range testSizes {
		run(t, p, func(c *Comm) error {
			// The in-place variant must match the copying variant and
			// reduce into the caller's buffer rather than a fresh one.
			data := []int{c.Rank(), 100, c.Rank() * c.Rank()}
			want := Allreduce(c, data, add)
			got := AllreduceInPlace(c, data, add)
			if &got[0] != &data[0] {
				t.Errorf("p=%d rank=%d: result not reduced into the caller's buffer", p, c.Rank())
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("p=%d rank=%d: in-place got %v, want %v", p, c.Rank(), got, want)
					break
				}
			}
			return nil
		})
	}
}

func TestAllreduceLengthMismatch(t *testing.T) {
	w, _ := NewWorld(2, nil)
	err := w.Run(func(c *Comm) error {
		data := make([]int, 1+c.Rank()) // lengths differ across ranks
		Allreduce(c, data, func(a, b int) int { return a + b })
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "length mismatch") {
		t.Fatalf("expected mismatch error, got %v", err)
	}
}

func TestGather(t *testing.T) {
	for _, p := range testSizes {
		for root := 0; root < p; root += 1 + 2*p/3 {
			run(t, p, func(c *Comm) error {
				// Variable-length blocks: rank r contributes r+1 values.
				mine := make([]int, c.Rank()+1)
				for i := range mine {
					mine[i] = c.Rank()*1000 + i
				}
				all := Gather(c, root, mine)
				if c.Rank() != root {
					if all != nil {
						t.Errorf("non-root got %v", all)
					}
					return nil
				}
				for r := 0; r < p; r++ {
					if len(all[r]) != r+1 {
						t.Errorf("p=%d: block %d has %d values", p, r, len(all[r]))
						continue
					}
					for i, v := range all[r] {
						if v != r*1000+i {
							t.Errorf("p=%d: all[%d][%d] = %d", p, r, i, v)
						}
					}
				}
				return nil
			})
		}
	}
}

func TestAllgather(t *testing.T) {
	for _, p := range testSizes {
		run(t, p, func(c *Comm) error {
			mine := make([]int, c.Rank()%3) // includes empty blocks
			for i := range mine {
				mine[i] = c.Rank() + i
			}
			all := Allgather(c, mine)
			if len(all) != p {
				t.Fatalf("got %d blocks", len(all))
			}
			for r := 0; r < p; r++ {
				if len(all[r]) != r%3 {
					t.Errorf("block %d has %d values, want %d", r, len(all[r]), r%3)
				}
				for i, v := range all[r] {
					if v != r+i {
						t.Errorf("all[%d][%d] = %d", r, i, v)
					}
				}
			}
			return nil
		})
	}
}

func TestAllgatherOne(t *testing.T) {
	for _, p := range testSizes {
		run(t, p, func(c *Comm) error {
			all := AllgatherOne(c, c.Rank()*c.Rank())
			for r := 0; r < p; r++ {
				if all[r] != r*r {
					t.Errorf("all[%d] = %d", r, all[r])
				}
			}
			return nil
		})
	}
}

func TestScatter(t *testing.T) {
	for _, p := range testSizes {
		for root := 0; root < p; root += 1 + p/2 {
			run(t, p, func(c *Comm) error {
				var blocks [][]int
				if c.Rank() == root {
					blocks = make([][]int, p)
					for r := range blocks {
						blocks[r] = []int{r * 2, r*2 + 1}
					}
				}
				mine := Scatter(c, root, blocks)
				if len(mine) != 2 || mine[0] != c.Rank()*2 || mine[1] != c.Rank()*2+1 {
					t.Errorf("p=%d root=%d rank=%d: got %v", p, root, c.Rank(), mine)
				}
				return nil
			})
		}
	}
}

func TestAlltoall(t *testing.T) {
	for _, p := range testSizes {
		run(t, p, func(c *Comm) error {
			blocks := make([][]int, p)
			for dst := range blocks {
				blocks[dst] = []int{c.Rank()*100 + dst}
			}
			got := AlltoallWith(c, blocks, AlltoallPairwise, 1, nil)
			for src := range got {
				if len(got[src]) != 1 || got[src][0] != src*100+c.Rank() {
					t.Errorf("p=%d rank=%d: from %d got %v", p, c.Rank(), src, got[src])
				}
			}
			return nil
		})
	}
}

func TestAlltoallv(t *testing.T) {
	for _, p := range testSizes {
		run(t, p, func(c *Comm) error {
			// Rank r sends (r+dst)%3 elements to dst, all equal to r*1000+dst.
			counts := make([]int, p)
			var buf []int
			for dst := 0; dst < p; dst++ {
				counts[dst] = (c.Rank() + dst) % 3
				for k := 0; k < counts[dst]; k++ {
					buf = append(buf, c.Rank()*1000+dst)
				}
			}
			recv, rcounts := AlltoallvWith(c, buf, counts, AlltoallPairwise, 1)
			off := 0
			for src := 0; src < p; src++ {
				want := (src + c.Rank()) % 3
				if rcounts[src] != want {
					t.Errorf("p=%d rank=%d: count from %d = %d, want %d", p, c.Rank(), src, rcounts[src], want)
				}
				for k := 0; k < rcounts[src]; k++ {
					if recv[off] != src*1000+c.Rank() {
						t.Errorf("p=%d rank=%d: value from %d = %d", p, c.Rank(), src, recv[off])
					}
					off++
				}
			}
			if off != len(recv) {
				t.Errorf("receive buffer length mismatch")
			}
			return nil
		})
	}
}

func TestAlltoallvValidation(t *testing.T) {
	w, _ := NewWorld(2, nil)
	err := w.Run(func(c *Comm) error {
		AlltoallvWith(c, []int{1, 2, 3}, []int{1, 1}, AlltoallPairwise, 1) // counts sum != len
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "sum") {
		t.Fatalf("expected count-sum panic, got %v", err)
	}
}

func TestSplit(t *testing.T) {
	run(t, 12, func(c *Comm) error {
		// Two colors; order within each by descending rank via key.
		color := c.Rank() % 2
		sub := c.Split(color, -c.Rank())
		if sub.Size() != 6 {
			t.Errorf("sub size = %d", sub.Size())
		}
		// Highest old rank gets new rank 0.
		wantRank := (10 + color - c.Rank()) / 2
		if sub.Rank() != wantRank {
			t.Errorf("old rank %d: new rank %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// The subcommunicator must work: allreduce of old world ranks.
		sum := AllreduceOne(sub, c.Rank(), func(a, b int) int { return a + b })
		want := 0
		for r := color; r < 12; r += 2 {
			want += r
		}
		if sum != want {
			t.Errorf("color %d: sum = %d, want %d", color, sum, want)
		}
		// Tag spaces are isolated: concurrent collectives on parent and
		// child communicators must not interfere.
		total := AllreduceOne(c, 1, func(a, b int) int { return a + b })
		if total != 12 {
			t.Errorf("parent comm broken after split: %d", total)
		}
		return nil
	})
}

func TestSplitSingleton(t *testing.T) {
	run(t, 3, func(c *Comm) error {
		sub := c.Split(c.Rank(), 0) // every rank its own color
		if sub.Size() != 1 || sub.Rank() != 0 {
			t.Errorf("singleton split wrong: size=%d rank=%d", sub.Size(), sub.Rank())
		}
		if got := AllreduceOne(sub, 41, func(a, b int) int { return a + b }); got != 41 {
			t.Errorf("singleton allreduce = %d", got)
		}
		return nil
	})
}

func TestNestedSplit(t *testing.T) {
	run(t, 8, func(c *Comm) error {
		half := c.Split(c.Rank()/4, c.Rank())
		quarter := half.Split(half.Rank()/2, half.Rank())
		if quarter.Size() != 2 {
			t.Errorf("quarter size = %d", quarter.Size())
		}
		sum := AllreduceOne(quarter, c.Rank(), func(a, b int) int { return a + b })
		base := (c.Rank() / 2) * 2
		if sum != base+base+1 {
			t.Errorf("rank %d: quarter sum = %d", c.Rank(), sum)
		}
		return nil
	})
}

func TestStatsAccounting(t *testing.T) {
	model := simnet.SuperMUC(2, true)
	w, err := NewWorld(4, model)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, 0, make([]uint64, 100)) // same node: 800 bytes
			Send(c, 2, 0, make([]uint64, 10))  // cross node: 80 bytes
		}
		if c.Rank() == 1 || c.Rank() == 2 {
			Recv[uint64](c, 0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.TotalStats()
	if s.TotalMessages() != 2 {
		t.Errorf("messages = %d", s.TotalMessages())
	}
	if s.Links[simnet.Network].Bytes != 80 {
		t.Errorf("network bytes = %d", s.Links[simnet.Network].Bytes)
	}
	if s.TotalBytes() != 880 {
		t.Errorf("total bytes = %d", s.TotalBytes())
	}
}

func TestByteScaleInflatesAccounting(t *testing.T) {
	model := simnet.SuperMUC(2, true)
	w, _ := NewWorld(2, model)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			SendScaled(c, 1, 0, make([]uint64, 10), 16) // 80 real bytes, priced 1280
		} else {
			Recv[uint64](c, 0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := w.TotalStats()
	if got := stats.TotalBytes(); got != 1280 {
		t.Errorf("scaled bytes = %d, want 1280", got)
	}
}

func TestVirtualClockDeterminism(t *testing.T) {
	// The virtual makespan of a fixed communication pattern must be
	// identical across runs regardless of goroutine scheduling.
	pattern := func() int64 {
		w, _ := NewWorld(16, simnet.SuperMUC(4, true))
		err := w.Run(func(c *Comm) error {
			for iter := 0; iter < 10; iter++ {
				Allreduce(c, []int{c.Rank(), iter}, func(a, b int) int { return a + b })
				Barrier(c)
				blocks := make([][]int, c.Size())
				for i := range blocks {
					blocks[i] = []int{c.Rank(), i}
				}
				AlltoallWith(c, blocks, AlltoallPairwise, 1, nil)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(w.Makespan())
	}
	first := pattern()
	if first <= 0 {
		t.Fatal("virtual makespan must be positive")
	}
	for i := 0; i < 3; i++ {
		if got := pattern(); got != first {
			t.Fatalf("nondeterministic makespan: %d vs %d", got, first)
		}
	}
}

func TestVirtualClockAdvancesOnTraffic(t *testing.T) {
	w, _ := NewWorld(8, simnet.SuperMUC(4, true))
	err := w.Run(func(c *Comm) error {
		before := c.Clock().Now()
		Allreduce(c, []int{1}, func(a, b int) int { return a + b })
		if c.Clock().Now() <= before {
			t.Errorf("rank %d: clock did not advance", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	times := w.RankTimes()
	if len(times) != 8 {
		t.Fatalf("rank times: %v", times)
	}
}

func TestWorldAccessors(t *testing.T) {
	model := simnet.SuperMUC(16, false)
	w, _ := NewWorld(3, model)
	if w.Size() != 3 || w.Model() != model {
		t.Error("accessors broken")
	}
	run(t, 2, func(c *Comm) error {
		if c.WorldRank() != c.Rank() {
			t.Error("world comm must map ranks identically")
		}
		if c.Model() != nil {
			t.Error("real-time world must have nil model")
		}
		if c.Stats() == nil {
			t.Error("stats accumulator missing")
		}
		return nil
	})
}

// TestHugeScaleSaturates: the priced volume of a message saturates instead
// of wrapping, so a 2^24-byte send at byte scale 2^40 (the largest scale
// core.Config allows) costs the sender at least as much clock and tallies at
// least as many bytes as at 2^30.
func TestHugeScaleSaturates(t *testing.T) {
	send := func(scale float64) (time.Duration, int64) {
		w, err := NewWorld(2, simnet.SuperMUC(1, true))
		if err != nil {
			t.Fatal(err)
		}
		var clock time.Duration
		err = w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				SendScaled(c, 1, 0, make([]byte, 1<<24), scale)
				clock = c.Clock().Now()
			} else {
				Recv[byte](c, 0, 0)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return clock, w.RankStats()[0].TotalBytes()
	}
	c30, b30 := send(1 << 30)
	c40, b40 := send(1 << 40)
	if c40 < c30 || b40 < b30 {
		t.Errorf("scale 2^40 priced %v and %d bytes, below scale 2^30's %v and %d bytes", c40, b40, c30, b30)
	}
}
