package comm

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// rendezvousSizes are the world sizes the rendezvous is held to its message
// schedules at: one rank, the smallest fold, odd and prime sizes, and the
// sort-latency shape.
var rendezvousSizes = []int{1, 2, 3, 5, 13, 64}

// span is a min/max pair like the brackets core's seed reduction carries.
type span struct {
	Has      bool
	Min, Max int64
}

func mergeSpan(a, b span) span {
	switch {
	case !a.Has:
		return b
	case !b.Has:
		return a
	}
	return span{true, min(a.Min, b.Min), max(a.Max, b.Max)}
}

// mixedFloats is rank r's vector of float64s spread over 32 orders of
// magnitude, so that a sum depends on the order it is taken in.
func mixedFloats(r, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64((r*7919+i*104729)%1000-500) * math.Pow(10, float64((r+i)%9*4-16))
	}
	return v
}

// transcript runs the collectives under test on one transport — the
// rendezvous when shared, the message schedules otherwise, each called
// directly — and returns what rank c saw: every result, bit for bit, and its
// Stats after every collective.
func transcript(c *Comm, shared bool) string {
	var b strings.Builder
	note := func(what string, v any) { fmt.Fprintf(&b, "%s %v | %v\n", what, v, *c.Stats()) }
	allreduce := func(data []int64) []int64 {
		add := func(a, b int64) int64 { return a + b }
		if shared {
			return allreduceRendezvous(c, data, add)
		}
		return allreduceMessages(c, data, add)
	}
	me, p := c.Rank(), c.Size()

	ints := make([]int64, 7)
	for i := range ints {
		ints[i] = int64(me*1000003 - i*i*77)
	}
	note("int64 sum", allreduce(ints))

	fsum := func(a, b float64) float64 { return a + b }
	floats := mixedFloats(me, 5)
	if shared {
		allreduceRendezvous(c, floats, fsum)
	} else {
		allreduceMessages(c, floats, fsum)
	}
	bits := make([]uint64, len(floats))
	for i, f := range floats {
		bits[i] = math.Float64bits(f)
	}
	note("float64 sum", bits)

	spans := make([]span, 3)
	for i := range spans {
		spans[i] = span{(me+i)%3 != 0, int64((me*31 + i*17) % 23), int64((me*13 + i*29) % 41)}
	}
	if shared {
		allreduceRendezvous(c, spans, mergeSpan)
	} else {
		allreduceMessages(c, spans, mergeSpan)
	}
	note("min/max", spans)

	if shared {
		barrierRendezvous(c)
	} else {
		barrierMessages(c)
	}
	note("barrier", "")

	// Exchanges of ragged 24-byte blocks, empty ones included, under every
	// schedule that meets at the rendezvous, separated by a BCAST (a message
	// schedule that lets its root run ahead) and an ALLREDUCE, three in a
	// row with fresh contents and a receive buffer that is absent, too short
	// (it grows) and large enough (the blocks land in it).
	type rec struct {
		Src, Dst int64
		Val      float64
	}
	for rep := 0; rep < 3; rep++ {
		for _, sched := range []AlltoallAlgorithm{AlltoallBruck, AlltoallPairwise, AlltoallOneFactor} {
			mk := func(src, dst, k int) rec { return rec{int64(src), int64(dst), float64(k*rep) + 0.5} }
			blocks := raggedBlocks(me, p, mk)
			recv := [][]rec{nil, make([]rec, 1), make([]rec, 5*p)}[rep]
			var buf []rec
			var got [][]rec
			if shared {
				buf, got = alltoallRendezvous(c, blocks, sched, 1.5, recv)
			} else {
				buf, got = alltoallMessages(c, blocks, sched, 1.5, recv)
			}
			clear(blocks[(me+1)%p]) // the caller's buffers are its own again
			landed := len(buf) > 0 && len(recv) > 0 && &buf[0] == &recv[0]
			note(fmt.Sprintf("%v landed=%v", sched, landed), got)
		}
		note("bcast", Bcast(c, rep%p, []int{rep, me}))
		if rep == 1 {
			note("int64 sum", allreduce([]int64{int64(rep), int64(me)}))
		}
	}
	return b.String()
}

// TestRendezvousMatchesMessages: the rendezvous gives every rank what the
// message schedules give it — bit-identical results, equal Stats after every
// collective.
func TestRendezvousMatchesMessages(t *testing.T) {
	for _, p := range rendezvousSizes {
		var seen [2][]string
		var stats [2][]Stats
		for i, shared := range []bool{false, true} {
			seen[i] = make([]string, p)
			w := run(t, p, func(c *Comm) error {
				seen[i][c.Rank()] = transcript(c, shared)
				return nil
			})
			stats[i] = w.RankStats()
		}
		for r := 0; r < p; r++ {
			if seen[0][r] != seen[1][r] {
				t.Errorf("p=%d rank %d:\nmessages:\n%s\nrendezvous:\n%s", p, r, seen[0][r], seen[1][r])
			}
		}
		if !slices.Equal(stats[0], stats[1]) {
			t.Errorf("p=%d: per-rank Stats differ:\nmessages   %v\nrendezvous %v", p, stats[0], stats[1])
		}
	}
}

// TestReduceTreeOrderMatters: the float64 vectors of the equivalence test
// are order-sensitive — a left-to-right sum differs from the tree's in some
// element — so bit-identical results there pin the pairing order.
func TestReduceTreeOrderMatters(t *testing.T) {
	const p, n = 64, 5
	vecs := make([][]float64, p)
	seq := make([]float64, n)
	for r := range vecs {
		vecs[r] = mixedFloats(r, n)
		for i, f := range vecs[r] {
			seq[i] += f
		}
	}
	tree := reduceTree(vecs, func(a, b float64) float64 { return a + b })
	if slices.Equal(tree, seq) {
		t.Fatalf("the tree sum %v equals the sequential sum: the vectors do not pin the order", tree)
	}
}

// exchangeSchedules are the schedules a shared-memory world runs as one
// rendezvous, AlltoallAuto deciding between two of them.
var exchangeSchedules = []AlltoallAlgorithm{AlltoallAuto, AlltoallPairwise, AlltoallOneFactor, AlltoallBruck}

// TestExchangeRendezvousPinsNothing: once an exchange has returned on every
// rank, the rendezvous references no rank's blocks — it keeps no exchanged
// elements reachable between collectives.
func TestExchangeRendezvousPinsNothing(t *testing.T) {
	const p = 13
	run(t, p, func(c *Comm) error {
		for _, sched := range exchangeSchedules {
			AlltoallWith(c, raggedBlocks(c.Rank(), p, func(src, dst, k int) int64 { return 1 }), sched, 1, nil)
			rv := c.rendezvous()
			rv.lock()
			from := stateOf[exchangeState[int64]](rv).from
			rv.mu.Unlock()
			for src, row := range from {
				if row != nil {
					t.Errorf("%v: rank %d: the rendezvous still holds rank %d's blocks", sched, c.Rank(), src)
				}
			}
			Barrier(c) // nobody enters the next exchange before every rank has looked
		}
		return nil
	})
}

// TestExchangeSendBlocksFreeOnReturn: a rank may overwrite its send blocks
// the moment the exchange returns, while its peers are still copying theirs,
// and every receiver still gets the blocks as sent — on every schedule, and
// under -race with no report: no receiver reads a sender's blocks after that
// sender is back.  Blocks that fit land in the caller's buffer.
func TestExchangeSendBlocksFreeOnReturn(t *testing.T) {
	mk := func(src, dst, k int) int64 { return int64(src*10000 + dst*10 + k) }
	for _, p := range []int{1, 2, 5, 8} {
		run(t, p, func(c *Comm) error {
			for rep, sched := range exchangeSchedules {
				blocks := raggedBlocks(c.Rank(), p, mk)
				recv := make([]int64, 5*p)
				got := AlltoallWith(c, blocks, sched, 1, recv)
				for _, b := range blocks {
					for k := range b {
						b[k] = -1
					}
				}
				Barrier(c)
				off := 0
				for src := range got {
					want := raggedBlocks(src, p, mk)[c.Rank()]
					if !slices.Equal(got[src], want) {
						t.Errorf("p=%d rep=%d %v rank %d: block from %d is %v, want %v", p, rep, sched, c.Rank(), src, got[src], want)
					}
					if len(want) > 0 && &got[src][0] != &recv[off] {
						t.Errorf("p=%d %v rank %d: the block from %d is not at offset %d of the receive buffer", p, sched, c.Rank(), src, off)
					}
					off += len(want)
				}
			}
			return nil
		})
	}
}

// waitParked returns once every rank of c but the caller has entered c's
// current rendezvous generation.
func waitParked(c *Comm) {
	rv := c.rendezvous()
	for {
		rv.mu.Lock()
		n := rv.arrived
		rv.mu.Unlock()
		if n == c.Size()-1 {
			return
		}
		runtime.Gosched()
	}
}

// waitGoroutines fails t unless the goroutine count falls back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the test", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestRendezvousUnwindsOnFailure: a rank that returns an error or panics
// while its peers are parked in a rendezvous aborts the world, and the
// parked ranks unwind — World.Run returns the error, a PersistentWorld
// reports ErrWorldBroken afterwards, and no goroutine is left behind.  A
// length mismatch the last arrival finds while combining is an error too.
func TestRendezvousUnwindsOnFailure(t *testing.T) {
	const p = 8
	add := func(a, b int64) int64 { return a + b }
	boom := errors.New("boom")
	collectives := []struct {
		name string
		call func(c *Comm)
	}{
		{"barrier", Barrier},
		{"allreduce", func(c *Comm) { AllreduceInPlace(c, []int64{1, 2}, add) }},
		{"bruck", func(c *Comm) { AlltoallWith(c, make([][]int64, c.Size()), AlltoallBruck, 1, nil) }},
	}
	failures := []struct {
		name string
		fail func() error
		is   func(error) bool
	}{
		{"error", func() error { return boom }, func(err error) bool { return errors.Is(err, boom) }},
		{"panic", func() error { panic("kaput") }, func(err error) bool { return err != nil && strings.Contains(err.Error(), "kaput") }},
	}
	base := runtime.NumGoroutine()
	for _, coll := range collectives {
		for _, f := range failures {
			job := func(c *Comm) error {
				if c.Rank() == 3 {
					waitParked(c)
					return f.fail()
				}
				coll.call(c)
				return nil
			}
			w, _ := NewWorld(p, nil)
			if err := w.Run(job); !f.is(err) {
				t.Errorf("%s, %s: World.Run returned %v", coll.name, f.name, err)
			}
			pw, err := NewPersistentWorld(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := pw.Execute(func(c *Comm) error { coll.call(c); return nil }); err != nil {
				t.Fatalf("%s: a clean job failed: %v", coll.name, err)
			}
			if err := pw.Execute(job); !f.is(err) {
				t.Errorf("%s, %s: Execute returned %v", coll.name, f.name, err)
			}
			if err := pw.Execute(func(*Comm) error { return nil }); !errors.Is(err, ErrWorldBroken) {
				t.Errorf("%s, %s: Execute after the failure returned %v, want ErrWorldBroken", coll.name, f.name, err)
			}
			pw.Close()
		}
	}

	mismatch := func(c *Comm) error {
		Allreduce(c, make([]int64, 1+c.Rank()%2), add)
		return nil
	}
	w, _ := NewWorld(p, nil)
	if err := w.Run(mismatch); err == nil || !strings.Contains(err.Error(), "length mismatch") {
		t.Errorf("World.Run of mismatched reductions returned %v", err)
	}
	pw, err := NewPersistentWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.Execute(mismatch); err == nil || !strings.Contains(err.Error(), "length mismatch") {
		t.Errorf("Execute of mismatched reductions returned %v", err)
	}
	if err := pw.Execute(func(*Comm) error { return nil }); !errors.Is(err, ErrWorldBroken) {
		t.Errorf("Execute after the mismatch returned %v, want ErrWorldBroken", err)
	}
	pw.Close()
	waitGoroutines(t, base)
}
