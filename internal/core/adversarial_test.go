package core

import (
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

func TestSortShiftedWorstCaseExchange(t *testing.T) {
	// Every element must relocate; correctness and balance must hold.
	p := 8
	spec := workload.Spec{Dist: workload.Shifted, Seed: 97, Span: 1e9, Ranks: p}
	ins, outs := runSort(t, p, spec, 400, Config{}, nil)
	checkSorted(t, ins, outs, true, 0)
}

func TestSortShiftedMovesAlmostEverything(t *testing.T) {
	// The shifted workload forces ~100% of the data across the wire;
	// verify through the communication accounting.
	p, perRank := 8, 512
	model := simnet.SuperMUC(1, true) // 1 rank/node: all traffic is network
	w, _ := comm.NewWorld(p, model)
	err := w.Run(func(c *comm.Comm) error {
		spec := workload.Spec{Dist: workload.Shifted, Seed: 98, Span: 1e9, Ranks: p}
		local, _ := spec.Rank(c.Rank(), perRank)
		_, err := Sort(c, local, u64, Config{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := w.TotalStats()
	dataFloor := int64(p*perRank) * 8 // every key crosses at least once
	if net := stats.Links[simnet.Network].Bytes; net < dataFloor {
		t.Fatalf("network volume %d below the full-relocation floor %d", net, dataFloor)
	}
}

func TestSortReverseSorted(t *testing.T) {
	spec := workload.Spec{Dist: workload.ReverseSorted, Seed: 99, Span: 1e9}
	ins, outs := runSort(t, 7, spec, 300, Config{}, nil)
	checkSorted(t, ins, outs, true, 0)
}

func TestSortNearlySortedMovesLittle(t *testing.T) {
	// The converse of the shifted case: nearly sorted input should keep
	// most data local (cuts fall close to rank boundaries).  The local
	// share must be large enough that histogram control traffic (fixed
	// O(iterations × P log P)) does not mask the data volume.
	p, perRank := 8, 16384
	model := simnet.SuperMUC(1, true)
	w, _ := comm.NewWorld(p, model)
	err := w.Run(func(c *comm.Comm) error {
		spec := workload.Spec{Dist: workload.NearlySorted, Seed: 100, Span: 1e9}
		local, _ := spec.Rank(c.Rank(), perRank)
		_, err := Sort(c, local, u64, Config{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := w.TotalStats()
	dataCeiling := int64(p*perRank) * 8 / 2 // far less than half relocates
	if net := stats.Links[simnet.Network].Bytes; net > dataCeiling {
		t.Fatalf("nearly-sorted input moved %d bytes, expected < %d", net, dataCeiling)
	}
}

func TestOneDataMoveInvariant(t *testing.T) {
	// §V-B: elements cross the network exactly once; total communication
	// must be the data volume plus small control traffic — a regression
	// guard against the exchange accidentally taking a multi-hop
	// schedule for bulk data.
	p, perRank, scale := 32, 2048, 1024.0
	model := simnet.SuperMUC(16, true)
	w, _ := comm.NewWorld(p, model)
	err := w.Run(func(c *comm.Comm) error {
		spec := workload.Spec{Dist: workload.Uniform, Seed: 111, Span: 1e9}
		local, _ := spec.Rank(c.Rank(), perRank)
		_, err := Sort(c, local, u64, Config{VirtualScale: scale})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := w.TotalStats()
	dataBytes := float64(p*perRank) * 8 * scale
	if got := float64(stats.TotalBytes()); got > 1.15*dataBytes {
		t.Fatalf("total volume %.0f exceeds one-move budget %.0f", got, dataBytes)
	}
}
