package comm_test

import (
	"slices"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/keys"
	"dhsort/internal/workload"
)

// TestReshapeKeepsRendezvousBounded: a fault-free real-time world grown
// 4 → 8 and shrunk 8 → 4 fifty times, sorting after every reshape, sorts
// correctly throughout and ends every reshape holding the rendezvous of its
// live communicator only — Grow and Shrink drop the retired communicator's.
func TestReshapeKeepsRendezvousBounded(t *testing.T) {
	const n = 4096
	pw, err := comm.NewPersistentWorld(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()
	for cycle := 0; cycle < 50; cycle++ {
		for _, reshape := range []func() error{func() error { return pw.Grow(4) }, func() error { return pw.Shrink(4) }} {
			if err := reshape(); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
			p := pw.Size()
			outs := make([][]float64, p)
			var live [2]uint64
			sorted := false
			err := pw.Execute(func(c *comm.Comm) error {
				ks, err := workload.Spec{Dist: workload.Normal, Seed: uint64(cycle)}.Rank(c.Rank(), workload.LocalSize(n, p, c.Rank()))
				if err != nil {
					return err
				}
				out, err := core.Sort(c, workload.Floats(ks), keys.Float64{}, core.Config{})
				if err != nil {
					return err
				}
				outs[c.Rank()] = out
				ok := core.IsGloballySorted(c, out, keys.Float64{})
				if c.Rank() == 0 {
					live, sorted = comm.CommKey(c), ok
				}
				return nil
			})
			if err != nil {
				t.Fatalf("cycle %d, p=%d: %v", cycle, p, err)
			}
			total := 0
			for r, out := range outs {
				if len(out) != workload.LocalSize(n, p, r) {
					t.Fatalf("cycle %d, p=%d: rank %d holds %d keys", cycle, p, r, len(out))
				}
				total += len(out)
			}
			if !sorted || total != n {
				t.Fatalf("cycle %d, p=%d: sorted %v, %d of %d keys", cycle, p, sorted, total, n)
			}
			if got := comm.RendezvousKeys(pw); !slices.Equal(got, [][2]uint64{live}) {
				t.Fatalf("cycle %d, p=%d: rendezvous held for %v, want the live communicator %v only", cycle, p, got, live)
			}
		}
	}
}
