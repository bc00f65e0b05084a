package comm

import (
	"testing"

	"dhsort/internal/prng"
	"dhsort/internal/simnet"
)

// hierWorkload builds a deterministic alltoallv input: rank r sends
// (r+dst)%5 values 1000r+dst to each dst.
func hierWorkload(rank, p int) ([]int, []int) {
	counts := make([]int, p)
	var buf []int
	for d := 0; d < p; d++ {
		counts[d] = (rank + d) % 5
		for k := 0; k < counts[d]; k++ {
			buf = append(buf, rank*1000+d)
		}
	}
	return buf, counts
}

// runModelled is run in a world priced by model, whose topology is what the
// leader scheme groups by.
func runModelled(t *testing.T, p int, model *simnet.CostModel, fn func(c *Comm) error) *World {
	t.Helper()
	w, err := NewWorld(p, model)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(fn); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAlltoallvHierMatchesFlat(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6, 9, 16} {
		for _, rpn := range []int{1, 2, 4, 16} {
			runModelled(t, p, simnet.SuperMUC(rpn, true), func(c *Comm) error {
				want := AlltoallOneFactor
				if rpn > 1 {
					want = AlltoallHierarchical
				}
				if got := EffectiveSchedule(c, AlltoallHierarchical); got != want {
					t.Errorf("p=%d rpn=%d: runs %v, want %v", p, rpn, got, want)
				}
				buf, counts := hierWorkload(c.Rank(), p)
				wantData, wantCounts := AlltoallvWith(c, append([]int(nil), buf...), counts, AlltoallPairwise, 1)
				gotData, gotCounts := AlltoallvWith(c, buf, counts, AlltoallHierarchical, 1)
				if len(gotData) != len(wantData) {
					t.Errorf("p=%d rpn=%d rank=%d: length %d want %d", p, rpn, c.Rank(), len(gotData), len(wantData))
					return nil
				}
				for i := range wantData {
					if gotData[i] != wantData[i] {
						t.Errorf("p=%d rpn=%d rank=%d: data mismatch at %d", p, rpn, c.Rank(), i)
						return nil
					}
				}
				for i := range wantCounts {
					if gotCounts[i] != wantCounts[i] {
						t.Errorf("p=%d rpn=%d rank=%d: count mismatch from %d", p, rpn, c.Rank(), i)
					}
				}
				return nil
			})
		}
	}
}

func TestAlltoallvHierRandomized(t *testing.T) {
	const p = 8
	for seed := uint64(0); seed < 5; seed++ {
		runModelled(t, p, simnet.SuperMUC(4, false), func(c *Comm) error {
			src := prng.NewXoshiro256(seed*100 + uint64(c.Rank()))
			counts := make([]int, p)
			var buf []uint64
			for d := range counts {
				counts[d] = int(prng.Uint64n(src, 7))
				for k := 0; k < counts[d]; k++ {
					buf = append(buf, src.Uint64())
				}
			}
			want, wantC := AlltoallvWith(c, append([]uint64(nil), buf...), counts, AlltoallPairwise, 1)
			got, gotC := AlltoallvWith(c, buf, counts, AlltoallHierarchical, 1)
			if len(got) != len(want) {
				t.Fatalf("seed=%d: length mismatch", seed)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed=%d: data mismatch at %d", seed, i)
				}
			}
			for i := range wantC {
				if gotC[i] != wantC[i] {
					t.Fatalf("seed=%d: counts mismatch", seed)
				}
			}
			return nil
		})
	}
}

func TestAlltoallvHierReducesNetworkMessages(t *testing.T) {
	const p, rpn = 16, 4
	netMsgs := func(alg AlltoallAlgorithm) int64 {
		w := runModelled(t, p, simnet.SuperMUC(rpn, true), func(c *Comm) error {
			counts := make([]int, p)
			var buf []uint64
			for d := range counts {
				counts[d] = 32
				for k := 0; k < 32; k++ {
					buf = append(buf, uint64(d))
				}
			}
			AlltoallvWith(c, buf, counts, alg, 1)
			return nil
		})
		st := w.TotalStats()
		return st.Links[simnet.Network].Messages
	}
	flat, hier := netMsgs(AlltoallPairwise), netMsgs(AlltoallHierarchical)
	// Flat: each rank sends 12 cross-node messages (to 3 other nodes x 4
	// ranks) = 192.  Hierarchical: 4 leaders exchange with 3 peers (x2
	// for data+metadata) plus small split/allgather traffic.
	if hier >= flat {
		t.Fatalf("hierarchical (%d msgs) must beat flat (%d msgs) on network messages", hier, flat)
	}
	if hier > flat/2 {
		t.Errorf("hierarchical reduction too small: %d vs %d", hier, flat)
	}
}

// TestAlltoallvHierValidation: the leader scheme takes AlltoallvWith's count
// validation, and a world without node topology runs the 1-factor schedule.
func TestAlltoallvHierValidation(t *testing.T) {
	w, _ := NewWorld(2, simnet.SuperMUC(2, true))
	err := w.Run(func(c *Comm) error {
		AlltoallvWith(c, []int{1}, []int{1, 1}, AlltoallHierarchical, 1) // counts sum != len
		return nil
	})
	if err == nil {
		t.Fatal("expected validation panic")
	}
	if _, err := NewWorld(2, simnet.SuperMUC(0, true)); err == nil {
		t.Fatal("a model with no ranks per node must be rejected")
	}
	runModelled(t, 2, nil, func(c *Comm) error {
		if got := EffectiveSchedule(c, AlltoallHierarchical); got != AlltoallOneFactor {
			t.Errorf("a world without a model runs %v, want the 1-factor schedule", got)
		}
		if got := EffectiveSchedule(c, ExchangeRMAPut); got != AlltoallOneFactor {
			t.Errorf("a block collective runs %v for rma-put, want the 1-factor schedule", got)
		}
		return nil
	})
}
