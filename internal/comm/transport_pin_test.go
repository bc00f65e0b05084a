package comm_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/fault"
	"dhsort/internal/rma"
	"dhsort/internal/simnet"
)

// pinPlan injects every message fault class.  Its seed gives each kind of
// traffic the transcript drives (two-sided sends, rma notifications, the
// grow join) at least one duplicate that is also reordered and one that is
// also delayed: TestTransportPinnedVerdicts checks that.
var pinPlan = fault.Plan{
	Seed:        11,
	DropRate:    0.2,
	DupRate:     0.3,
	DelayRate:   0.3,
	MaxDelay:    20 * time.Microsecond,
	ReorderRate: 0.3,
}

const (
	pinRanks    = 4 // incumbents; the grow adds pinJoiners more
	pinJoiners  = 2
	pinMessages = 4 // per ordered pair and kind, alternating two tags
)

// pinTranscript runs the transport drive on a fresh world under pinPlan and
// renders, per rank, the clock after every call (virtual worlds only: a
// model-less clock is the wall clock), every delivered value in delivery
// order, and the rank's fault counters and link tallies.  It also returns
// the fault counters summed over the ranks.
func pinTranscript(t *testing.T, model *simnet.CostModel) (string, comm.FaultCounters) {
	t.Helper()
	w, err := comm.NewWorldWithFaults(pinRanks, model, pinPlan)
	if err != nil {
		t.Fatal(err)
	}
	logs := make([]strings.Builder, pinRanks+pinJoiners) // by world rank
	note := func(c *comm.Comm, format string, args ...any) {
		b := &logs[c.WorldRank()]
		fmt.Fprintf(b, format, args...)
		if model != nil {
			fmt.Fprintf(b, "@%d", c.Clock().Now())
		}
		b.WriteByte(' ')
	}
	var spawned *comm.Spawned
	err = w.Run(func(c *comm.Comm) error {
		me, p := c.Rank(), c.Size()
		// Two-sided sends of growing size on two interleaved tags.
		for i := 0; i < pinMessages; i++ {
			for d := 1; d < p; d++ {
				dst := (me + d) % p
				data := make([]int64, 1<<(2*i))
				data[0] = int64(100*me + i)
				comm.Send(c, dst, i%2, data)
				note(c, "s%d", dst)
			}
		}
		for d := 1; d < p; d++ {
			src := (me - d + p) % p
			for i := 0; i < pinMessages; i++ {
				note(c, "r%d", comm.Recv[int64](c, src, i%2)[0])
			}
		}
		// One-sided puts, each flagged by a notification.
		win := rma.New[int64](c, comm.RMADataTag, p*pinMessages)
		note(c, "win")
		for i := 0; i < pinMessages; i++ {
			for d := 1; d < p; d++ {
				dst := (me + d) % p
				win.PutNotify(dst, me*pinMessages+i, []int64{int64(100*me + i)}, i)
				note(c, "p%d", dst)
			}
		}
		for d := 1; d < p; d++ {
			src := (me - d + p) % p
			for i := 0; i < pinMessages; i++ {
				n := win.WaitNotify(src)
				note(c, "n%d.%d=%d", n.Origin, n.Value, win.Local()[n.Off])
			}
		}
		// A join: rank 0 spawns the joiners, everyone grows, and the grown
		// communicator runs a barrier.
		if me == 0 {
			s, err := w.Spawn(pinJoiners, func(jc *comm.Comm) error {
				nc := comm.AwaitGrow(jc, 0)
				note(nc, "j%d/%d", nc.Rank(), nc.Size())
				comm.Barrier(nc)
				note(nc, "b")
				return nil
			})
			if err != nil {
				return err
			}
			spawned = s
		}
		joiners := make([]int, pinJoiners)
		for i := range joiners {
			joiners[i] = pinRanks + i
		}
		nc := c.Grow(joiners)
		note(nc, "g%d/%d", nc.Rank(), nc.Size())
		comm.Barrier(nc)
		note(nc, "b")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := spawned.Wait(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for r, st := range w.RankStats() {
		fmt.Fprintf(&out, "rank %d: %s\n", r, strings.TrimSpace(logs[r].String()))
		fmt.Fprintf(&out, "rank %d fault: %+v\n", r, st.Fault)
		for lc, l := range st.Links {
			if l != (comm.LinkTally{}) {
				fmt.Fprintf(&out, "rank %d link %v: %+v\n", r, simnet.LinkClass(lc), l)
			}
		}
	}
	return out.String(), w.TotalStats().Fault
}

// TestTransportPinned pins what the message transport does under drops,
// duplicates, delays and reorders, on a SuperMUC world and on a model-less
// one: per rank, the clock after each two-sided send and receive, rma
// put+notify and wait, and grow step; the delivery order; and every fault
// counter and link tally.
func TestTransportPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model *simnet.CostModel
		want  string
	}{
		{"supermuc", simnet.SuperMUC(4, true), pinSuperMUC},
		{"none", nil, pinNone},
	} {
		if got, _ := pinTranscript(t, tc.model); got != tc.want {
			t.Errorf("%s: transcript moved:\n got:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}

// TestTransportPinnedVerdicts checks pinPlan's coverage: on each kind of
// traffic the transcript drives, the injector rules at least one delivered
// attempt a duplicate that is also reordered, and one a duplicate that is
// also delayed.  The verdicts it enumerates are the transcript's: their
// drops, duplicates, delays and reorders add up to its counters.
func TestTransportPinnedVerdicts(t *testing.T) {
	inj, err := fault.New(pinPlan)
	if err != nil {
		t.Fatal(err)
	}
	type flow struct {
		comm     uint64
		src, dst int
		tag      int
		seq      uint64
	}
	var sum comm.FaultCounters
	covered := func(kind string, flows []flow) {
		var dupReorder, dupDelay bool
		for _, f := range flows {
			for attempt := 0; ; attempt++ {
				v := inj.Verdict(f.comm, f.src, f.dst, f.tag, f.seq, attempt)
				if v.Drop {
					sum.Drops++
					continue
				}
				sum.Dups += b2i(v.Dup)
				sum.Delays += b2i(v.Delay > 0)
				sum.Reorders += b2i(v.Reorder)
				dupReorder = dupReorder || v.Dup && v.Reorder
				dupDelay = dupDelay || v.Dup && v.Delay > 0
				break
			}
		}
		if !dupReorder || !dupDelay {
			t.Errorf("%s: dup+reorder %v, dup+delay %v over %d messages", kind, dupReorder, dupDelay, len(flows))
		}
	}
	const world = 1
	var sends, notifies, joins []flow
	for me := 0; me < pinRanks; me++ {
		for d := 1; d < pinRanks; d++ {
			dst := (me + d) % pinRanks
			notifies = append(notifies, flow{world, me, dst, comm.RMADataTag, 1})
			for i := 0; i < pinMessages; i++ {
				sends = append(sends, flow{world, me, dst, i % 2, uint64(i/2 + 1)})
				notifies = append(notifies, flow{world, me, dst, comm.RMADataTag + 1, uint64(i + 1)})
			}
		}
	}
	// The dissemination barriers of the grow: the quiesce barrier on the
	// world, the join barrier and the grown communicator's barrier.
	grown := growID(t)
	dissemination := func(id uint64, p, tag int) {
		for me := 0; me < p; me++ {
			for k, bit := 0, 1; bit < p; k, bit = k+1, bit<<1 {
				joins = append(joins, flow{id, me, (me + bit) % p, tag + k, 1})
			}
		}
	}
	dissemination(world, pinRanks, comm.FirstCollectiveTag)
	dissemination(grown, pinRanks+pinJoiners, comm.JoinBarrierTag)
	dissemination(grown, pinRanks+pinJoiners, comm.FirstCollectiveTag)
	covered("two-sided", sends)
	covered("rma", notifies)
	covered("grow", joins)
	_, f := pinTranscript(t, nil)
	if got := (comm.FaultCounters{Drops: f.Drops, Dups: f.Dups, Delays: f.Delays, Reorders: f.Reorders}); got != sum {
		t.Errorf("the transcript counted %+v, its enumerated verdicts %+v", got, sum)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// growID is the identity of the communicator the transcript's grow derives
// (a pure function of the parent and the grow epoch, so any fault-free world
// of the same shape derives it too).
func growID(t *testing.T) uint64 {
	t.Helper()
	w, err := comm.NewWorld(pinRanks, nil)
	if err != nil {
		t.Fatal(err)
	}
	var id uint64
	var spawned *comm.Spawned
	err = w.Run(func(c *comm.Comm) error {
		if c.Rank() == 0 {
			s, err := w.Spawn(pinJoiners, func(jc *comm.Comm) error {
				comm.AwaitGrow(jc, 0)
				return nil
			})
			if err != nil {
				return err
			}
			spawned = s
		}
		nc := c.Grow([]int{pinRanks, pinRanks + 1})
		if c.Rank() == 0 {
			id = comm.CommKey(nc)[0]
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := spawned.Wait(); err != nil {
		t.Fatal(err)
	}
	return id
}

const pinSuperMUC = `rank 0: s1@4406 s2@9315 s3@9818 s1@14754 s2@19178 s3@19690 s1@24743 s2@25294 s3@26396 s1@27804 s2@40116 s3@53132 r300@53132 r301@53132 r302@53132 r303@53132 r200@53132 r201@53132 r202@53132 r203@53132 r100@53132 r101@53132 r102@53132 r103@53132 win@56532 p1@56533 p2@59934 p3@59935 p1@59936 p2@59937 p3@59938 p1@59939 p2@83740 p3@87141 p1@87142 p2@87143 p3@87144 n3.0=300@87144 n3.1=301@87144 n3.2=302@87144 n3.3=303@87144 n2.0=200@87144 n2.1=201@87144 n2.2=202@87144 n2.3=203@87144 n1.0=100@87144 n1.1=101@87144 n1.2=102@87144 n1.3=103@87144 g0/6@153198 b@242053
rank 0 fault: {Drops:16 Dups:15 Delays:8 Reorders:14 Retries:16 RetryNS:80697 Dedup:14}
rank 0 link cross-numa: {Messages:28 Bytes:3360 Puts:12 PutBytes:96 Notifies:12}
rank 0 link network: {Messages:4 Bytes:128 Puts:0 PutBytes:0 Notifies:0}
rank 1: s2@503 s3@4909 s0@9818 s2@14242 s3@15266 s0@15778 s2@16329 s3@20831 s0@21382 s2@22086 s3@26894 s0@28302 r0@28302 r1@28302 r2@28302 r3@43551 r300@43551 r301@43551 r302@43551 r303@43551 r200@43551 r201@43551 r202@43551 r203@43551 win@57769 p2@57770 p3@57771 p0@61172 p2@61173 p3@64574 p0@67975 p2@71376 p3@81577 p0@81578 p2@81579 p3@81580 p0@81581 n0.0=0@81581 n0.1=1@81581 n0.2=2@81581 n0.3=3@92076 n3.0=300@92076 n3.1=301@92076 n3.2=302@92076 n3.3=303@92076 n2.0=200@92076 n2.1=201@92076 n2.2=202@92076 n2.3=203@92076 g1/6@205712 b@239212
rank 1 fault: {Drops:15 Dups:13 Delays:10 Reorders:11 Retries:15 RetryNS:132973 Dedup:12}
rank 1 link cross-numa: {Messages:25 Bytes:2592 Puts:12 PutBytes:96 Notifies:12}
rank 1 link network: {Messages:2 Bytes:0 Puts:0 PutBytes:0 Notifies:0}
rank 2: s3@503 s0@1006 s1@2012 s3@2524 s0@3036 s1@3548 s3@4099 s0@5201 s1@5752 s3@6456 s0@7160 s1@7864 r100@7864 r101@34812 r102@34812 r103@34812 r0@34812 r1@34812 r2@39053 r3@40716 r300@40716 r301@40716 r302@40716 r303@40716 win@65950 p3@65951 p0@65952 p1@65953 p3@65954 p0@65955 p1@69356 p3@69357 p0@69358 p1@79559 p3@79560 p0@79561 p1@79562 n1.0=100@79562 n1.1=101@79562 n1.2=102@79562 n1.3=103@81579 n0.0=0@81579 n0.1=1@81579 n0.2=2@83740 n0.3=3@87143 n3.0=300@87143 n3.1=301@87143 n3.2=302@87143 n3.3=303@87143 g2/6@155798 b@231398
rank 2 fault: {Drops:4 Dups:8 Delays:9 Reorders:12 Retries:4 RetryNS:35100 Dedup:12}
rank 2 link cross-numa: {Messages:23 Bytes:2176 Puts:12 PutBytes:96 Notifies:12}
rank 2 link network: {Messages:3 Bytes:0 Puts:0 PutBytes:0 Notifies:0}
rank 3: s0@503 s1@1006 s2@1509 s0@2533 s1@3045 s2@3557 s0@4659 s1@9161 s2@9712 s0@10416 s1@15928 s2@16632 r200@16632 r201@16632 r202@16632 r203@16632 r100@16632 r101@16632 r102@21431 r103@44029 r0@44029 r1@44029 r2@44029 r3@53028 win@57132 p0@57133 p1@60534 p2@60535 p0@60536 p1@60537 p2@60538 p0@63939 p1@63940 p2@63941 p0@63942 p1@63943 p2@67344 n2.0=200@67344 n2.1=201@67344 n2.2=202@69357 n2.3=203@79560 n1.0=100@79560 n1.1=101@79560 n1.2=102@81577 n1.3=103@82492 n0.0=0@82492 n0.1=1@82492 n0.2=2@87141 n0.3=3@87144 g3/6@154118 b@234122
rank 3 fault: {Drops:9 Dups:12 Delays:12 Reorders:12 Retries:9 RetryNS:54855 Dedup:11}
rank 3 link cross-numa: {Messages:22 Bytes:2712 Puts:12 PutBytes:96 Notifies:12}
rank 3 link network: {Messages:5 Bytes:0 Puts:0 PutBytes:0 Notifies:0}
rank 4: j4/6@156182 b@222712
rank 4 fault: {Drops:1 Dups:1 Delays:1 Reorders:3 Retries:1 RetryNS:3900 Dedup:2}
rank 4 link cross-numa: {Messages:2 Bytes:0 Puts:0 PutBytes:0 Notifies:0}
rank 4 link network: {Messages:5 Bytes:0 Puts:0 PutBytes:0 Notifies:0}
rank 5: j5/6@210712 b@244212
rank 5 fault: {Drops:1 Dups:2 Delays:2 Reorders:1 Retries:1 RetryNS:21500 Dedup:0}
rank 5 link network: {Messages:8 Bytes:0 Puts:0 PutBytes:0 Notifies:0}
`

const pinNone = `rank 0: s1 s2 s3 s1 s2 s3 s1 s2 s3 s1 s2 s3 r300 r301 r302 r303 r200 r201 r202 r203 r100 r101 r102 r103 win p1 p2 p3 p1 p2 p3 p1 p2 p3 p1 p2 p3 n3.0=300 n3.1=301 n3.2=302 n3.3=303 n2.0=200 n2.1=201 n2.2=202 n2.3=203 n1.0=100 n1.1=101 n1.2=102 n1.3=103 g0/6 b
rank 0 fault: {Drops:16 Dups:15 Delays:8 Reorders:14 Retries:16 RetryNS:0 Dedup:14}
rank 0 link self: {Messages:32 Bytes:3488 Puts:12 PutBytes:96 Notifies:12}
rank 1: s2 s3 s0 s2 s3 s0 s2 s3 s0 s2 s3 s0 r0 r1 r2 r3 r300 r301 r302 r303 r200 r201 r202 r203 win p2 p3 p0 p2 p3 p0 p2 p3 p0 p2 p3 p0 n0.0=0 n0.1=1 n0.2=2 n0.3=3 n3.0=300 n3.1=301 n3.2=302 n3.3=303 n2.0=200 n2.1=201 n2.2=202 n2.3=203 g1/6 b
rank 1 fault: {Drops:15 Dups:13 Delays:10 Reorders:11 Retries:15 RetryNS:0 Dedup:12}
rank 1 link self: {Messages:27 Bytes:2592 Puts:12 PutBytes:96 Notifies:12}
rank 2: s3 s0 s1 s3 s0 s1 s3 s0 s1 s3 s0 s1 r100 r101 r102 r103 r0 r1 r2 r3 r300 r301 r302 r303 win p3 p0 p1 p3 p0 p1 p3 p0 p1 p3 p0 p1 n1.0=100 n1.1=101 n1.2=102 n1.3=103 n0.0=0 n0.1=1 n0.2=2 n0.3=3 n3.0=300 n3.1=301 n3.2=302 n3.3=303 g2/6 b
rank 2 fault: {Drops:4 Dups:8 Delays:9 Reorders:12 Retries:4 RetryNS:0 Dedup:12}
rank 2 link self: {Messages:26 Bytes:2176 Puts:12 PutBytes:96 Notifies:12}
rank 3: s0 s1 s2 s0 s1 s2 s0 s1 s2 s0 s1 s2 r200 r201 r202 r203 r100 r101 r102 r103 r0 r1 r2 r3 win p0 p1 p2 p0 p1 p2 p0 p1 p2 p0 p1 p2 n2.0=200 n2.1=201 n2.2=202 n2.3=203 n1.0=100 n1.1=101 n1.2=102 n1.3=103 n0.0=0 n0.1=1 n0.2=2 n0.3=3 g3/6 b
rank 3 fault: {Drops:9 Dups:12 Delays:12 Reorders:12 Retries:9 RetryNS:0 Dedup:11}
rank 3 link self: {Messages:27 Bytes:2712 Puts:12 PutBytes:96 Notifies:12}
rank 4: j4/6 b
rank 4 fault: {Drops:1 Dups:1 Delays:1 Reorders:3 Retries:1 RetryNS:0 Dedup:2}
rank 4 link self: {Messages:7 Bytes:0 Puts:0 PutBytes:0 Notifies:0}
rank 5: j5/6 b
rank 5 fault: {Drops:1 Dups:2 Delays:2 Reorders:1 Retries:1 RetryNS:0 Dedup:0}
rank 5 link self: {Messages:8 Bytes:0 Puts:0 PutBytes:0 Notifies:0}
`
