package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/workload"
)

// TestSortStatsGolden pins what every rank of a real-time core.Sort sends:
// 2^14 normal float64 keys, seed 3.  The rows were measured on the message
// transport, so the shared-memory rendezvous that now carries ALLREDUCE,
// BARRIER and the Bruck ALLTOALL in fault-free real-time worlds must tally
// exactly what its message schedule would have sent, rank by rank.
func TestSortStatsGolden(t *testing.T) {
	const n = 1 << 14
	golden := []struct {
		p               int
		messages, bytes int64
		digest          uint64 // FNV-1a over every rank's Stats, in rank order
	}{
		{1, 0, 0, 0xed62ceacd4622061},
		{5, 198, 113560, 0x6ec4b27c900498d6},
		{13, 690, 320200, 0xce154d20dd87b06a},
		{64, 12030, 7133808, 0x479ec6509a5f5282},
	}
	for _, g := range golden {
		w, err := comm.NewWorld(g.p, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *comm.Comm) error {
			ks, err := workload.Spec{Dist: workload.Normal, Seed: 3}.Rank(c.Rank(), workload.LocalSize(n, g.p, c.Rank()))
			if err != nil {
				return err
			}
			_, err = Sort(c, workload.Floats(ks), keys.Float64{}, Config{})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, st := range w.RankStats() {
			fmt.Fprint(h, st)
		}
		total := w.TotalStats()
		if total.TotalMessages() != g.messages || total.TotalBytes() != g.bytes || h.Sum64() != g.digest {
			t.Errorf("p=%d: %d messages, %d bytes, per-rank digest %#x; want %d, %d, %#x",
				g.p, total.TotalMessages(), total.TotalBytes(), h.Sum64(), g.messages, g.bytes, g.digest)
		}
	}
}
