package comm

import (
	"testing"
	"time"

	"dhsort/internal/simnet"
)

// TestStatsAggregationConcurrentFinish exercises the World-side stats
// aggregation path under the race detector: 16 ranks finish at staggered
// times while a monitor goroutine concurrently polls every World accessor
// (the pattern a live dashboard or the bench progress printer uses).  Run
// with -race; the per-rank Stats accumulators must stay goroutine-confined
// and the World-side snapshots mutex-consistent.
func TestStatsAggregationConcurrentFinish(t *testing.T) {
	const p = 16
	w, err := NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = w.TotalStats()
			_ = w.RankStats()
			_ = w.Makespan()
			_ = w.RankTimes()
		}
	}()

	err = w.Run(func(c *Comm) error {
		counts := make([]int, p)
		data := make([]int, 0, 4*p)
		for d := 0; d < p; d++ {
			counts[d] = 4
			for k := 0; k < 4; k++ {
				data = append(data, c.Rank()*1000+d)
			}
		}
		for round := 0; round < 4; round++ {
			out, recvCounts := AlltoallvWith(c, data, counts, AlltoallPairwise, 1)
			if len(out) != 4*p || len(recvCounts) != p {
				t.Errorf("rank %d: alltoallv returned %d elems, %d counts", c.Rank(), len(out), len(recvCounts))
			}
		}
		// Staggered completion: late ranks still record stats while early
		// ranks have already published their snapshots to the World.
		time.Sleep(time.Duration(c.Rank()) * time.Millisecond)
		return nil
	})
	close(stop)
	<-monitorDone
	if err != nil {
		t.Fatal(err)
	}

	// The aggregate must equal the sum of the per-rank snapshots.
	var want Stats
	perRank := w.RankStats()
	if len(perRank) != p {
		t.Fatalf("RankStats returned %d entries, want %d", len(perRank), p)
	}
	for i := range perRank {
		want.Add(&perRank[i])
	}
	got := w.TotalStats()
	if got != want {
		t.Errorf("TotalStats %+v != sum of RankStats %+v", got, want)
	}
	if got.TotalMessages() == 0 || got.TotalBytes() == 0 {
		t.Errorf("no traffic recorded: %+v", got)
	}
	// Real-time mode records everything on the self link class.
	if got.TotalMessages() != got.Links[simnet.SelfLink].Messages {
		t.Errorf("real-time traffic not on self link: %+v", got)
	}
}

// TestStatsPerLinkClassUnderModel checks that a modelled world attributes
// traffic to the topology's link classes and that Comm.Stats survives a
// communicator Split (same rank, same accumulator).
func TestStatsPerLinkClassUnderModel(t *testing.T) {
	const p = 8
	model := simnet.SuperMUC(4, true) // 2 nodes of 4 ranks, 4 NUMA domains
	w, err := NewWorld(p, model)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		before := c.Stats()
		sub := c.Split(c.Rank()%2, c.Rank())
		if sub.Stats() != before {
			t.Errorf("rank %d: Split must share the stats accumulator", c.Rank())
		}
		AllgatherOne(c, c.Rank())
		AllgatherOne(sub, c.Rank())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := w.TotalStats()
	if total.Links[simnet.Network].Bytes == 0 {
		t.Errorf("expected cross-node traffic between the two modelled nodes: %+v", total)
	}
	if total.TotalMessages() == 0 {
		t.Errorf("no messages recorded: %+v", total)
	}
}
