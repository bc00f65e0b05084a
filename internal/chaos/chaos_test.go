package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"dhsort/internal/core"
	"dhsort/internal/fault"
)

// PinnedSeed is the corpus ./ci.sh chaos runs; keep the small prefix green
// in tier 1 so the chaos tier never discovers a stale corpus.
const pinnedSeed = 20260807

// Scenario generation is a pure function of (seed, index).
func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 64; i++ {
		a, b := Generate(pinnedSeed, i), Generate(pinnedSeed, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("scenario %d not deterministic:\n%+v\n%+v", i, a, b)
		}
	}
}

// Different indices must actually vary the composition.
func TestCorpusVaries(t *testing.T) {
	algs := map[string]bool{}
	dists := map[string]bool{}
	probes := map[int]bool{}
	deaths, crashes, msg, spills, grows, growDies := 0, 0, 0, 0, 0, 0
	for _, sc := range Corpus(pinnedSeed, 64) {
		algs[sc.Algorithm] = true
		dists[string(sc.Dist)] = true
		probes[sc.Probes] = true
		if len(sc.Plan.Deaths) > 0 {
			deaths++
		}
		if len(sc.Plan.Crashes) > 0 {
			crashes++
		}
		if sc.Plan.MessageFaults() {
			msg++
		}
		if sc.MemBudget > 0 {
			spills++
		}
		if sc.GrowRanks > 0 {
			grows++
		}
		if sc.GrowDie {
			growDies++
		}
	}
	if len(algs) < 3 || len(dists) < 6 || deaths == 0 || crashes == 0 || msg == 0 {
		t.Fatalf("corpus lacks variety: algs=%d dists=%d deaths=%d crashes=%d msg=%d",
			len(algs), len(dists), deaths, crashes, msg)
	}
	// The storage axis must show up: a fair fraction of the corpus spills.
	if spills == 0 {
		t.Fatal("corpus has no out-of-core scenario")
	}
	// The elasticity axis too: mid-stream grows, including at least one
	// joiner dying inside the grow collective.
	if grows == 0 || growDies == 0 {
		t.Fatalf("corpus lacks elasticity: grows=%d grow-dies=%d", grows, growDies)
	}
	// The k-ary refinement path must compose with faults in the corpus:
	// bisection plus at least one multi-probe count.
	if !probes[1] || len(probes) < 2 {
		t.Fatalf("corpus lacks probe variety: %v", probes)
	}
}

// A prefix of the pinned corpus passes the four-way oracle (the full ≥64
// run is the ./ci.sh chaos tier).
func TestPinnedCorpusPrefix(t *testing.T) {
	for _, sc := range Corpus(pinnedSeed, 8) {
		res := Run(sc)
		if !res.Pass() {
			t.Fatalf("%s failed: %s\nrepro: %s", sc, strings.Join(res.Failures, "; "), ReproCommand(sc))
		}
	}
}

// The repro path replays a scenario bit-identically: two Runs of the same
// (seed, index) agree on the output digest and the virtual makespan — the
// regression guard for `make chaos-repro`.
func TestReproReplaysBitIdentically(t *testing.T) {
	for i := 0; i < 4; i++ {
		sc := Generate(pinnedSeed, i)
		a, b := Run(sc), Run(sc)
		if !a.Pass() || !b.Pass() {
			t.Fatalf("%s failed: %v / %v", sc, a.Failures, b.Failures)
		}
		if a.Digest != b.Digest || a.Makespan != b.Makespan {
			t.Fatalf("%s replay diverged: digest %x/%x makespan %v/%v",
				sc, a.Digest, b.Digest, a.Makespan, b.Makespan)
		}
	}
}

// The oracle itself must catch corruption: a tampered execution fails
// verification.
func TestOracleCatchesCorruption(t *testing.T) {
	sc := Scenario{Index: 0, Seed: 7, Algorithm: "dhsort", P: 4, PerRank: 100,
		Threads: 1, Dist: "uniform", Recovery: "respawn"}
	ex, err := execute(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fails := verify(sc, ex); len(fails) != 0 {
		t.Fatalf("clean run failed verification: %v", fails)
	}
	// Swap two elements across a rank boundary: breaks order.
	ex.Outs[0][0], ex.Outs[3][0] = ex.Outs[3][0], ex.Outs[0][0]
	if fails := verify(sc, ex); len(fails) == 0 {
		t.Fatal("oracle missed a corrupted output")
	}
	// Drop an element: breaks the multiset.
	ex2, _ := execute(sc, nil)
	ex2.Outs[1] = ex2.Outs[1][:len(ex2.Outs[1])-1]
	if fails := verify(sc, ex2); len(fails) == 0 {
		t.Fatal("oracle missed a lost element")
	}
}

// TestStorageAxis pins the fifth oracle on hand-built out-of-core
// scenarios: a spilled run passes the full Run — including the third,
// filesystem-backed execution that must reproduce the in-memory digest and
// virtual makespan bit-for-bit — composed with a crash respawn (durable
// checkpoint shards read back from the shared store) and with a permanent
// death (a survivor adopts the victim's shards under shrink recovery).
func TestStorageAxis(t *testing.T) {
	cases := []Scenario{
		{Index: 900, Seed: 3, Algorithm: "dhsort", P: 5, PerRank: 256,
			Threads: 1, Dist: "zipf", Recovery: core.RecoveryRespawn,
			MemBudget: 256, SpillFanIn: 2,
			Plan: fault.Plan{Seed: 9, Watchdog: watchdog}},
		{Index: 901, Seed: 3, Algorithm: "dhsort-rma", P: 4, PerRank: 512,
			Threads: 2, Dist: "duplicate-heavy", Recovery: core.RecoveryRespawn,
			MemBudget: 512,
			Plan: fault.Plan{Seed: 9, Watchdog: watchdog,
				Crashes: []fault.Crash{{Rank: 2, Step: core.StepSplitting}}}},
		{Index: 902, Seed: 3, Algorithm: "dhsort-fused", P: 5, PerRank: 256,
			Threads: 1, Dist: "uniform", Recovery: core.RecoveryShrink,
			MemBudget: 256, SpillFanIn: 4,
			Plan: fault.Plan{Seed: 9, Watchdog: watchdog,
				Deaths: []fault.Death{{Rank: 1, Step: core.StepCuts}}}},
		{Index: 903, Seed: 3, Algorithm: "hss", P: 4, PerRank: 256,
			Threads: 1, Dist: "zipf", Recovery: core.RecoveryRespawn,
			Rebalance: true, MemBudget: 256,
			Plan: fault.Plan{Seed: 9, Watchdog: watchdog}},
	}
	for _, sc := range cases {
		if res := Run(sc); !res.Pass() {
			t.Errorf("%s failed: %s", sc, strings.Join(res.Failures, "; "))
		}
	}
}

// TestElasticityAxis pins the grow oracle on hand-built scenarios: a
// fault-free mid-stream grow must land the exact front-loaded rebalance
// shares on every rank including the joiners; a grow under message faults
// must survive retransmit/dedup inside the join barrier; and a joiner dying
// mid-grow must resolve typed — incumbents revoke, agree, shrink back, and
// keep their pre-grow output while every joiner tail stays empty.
func TestElasticityAxis(t *testing.T) {
	cases := []Scenario{
		{Index: 910, Seed: 5, Algorithm: "dhsort", P: 4, PerRank: 256,
			Threads: 1, Dist: "zipf", Recovery: core.RecoveryRespawn,
			GrowRanks: 2},
		{Index: 911, Seed: 5, Algorithm: "hss", P: 4, PerRank: 256,
			Threads: 1, Dist: "duplicate-heavy", Recovery: core.RecoveryRespawn,
			Rebalance: true, GrowRanks: 4},
		{Index: 912, Seed: 5, Algorithm: "dhsort-rma", P: 5, PerRank: 256,
			Threads: 2, Dist: "uniform", Recovery: core.RecoveryRespawn,
			GrowRanks: 2,
			Plan: fault.Plan{Seed: 9, Watchdog: watchdog,
				DropRate: 0.02, DupRate: 0.02}},
		{Index: 913, Seed: 5, Algorithm: "dhsort-fused", P: 4, PerRank: 256,
			Threads: 1, Dist: "nearly-sorted", Recovery: core.RecoveryRespawn,
			GrowRanks: 2, GrowDie: true,
			Plan: fault.Plan{Seed: 9, Watchdog: watchdog, DropRate: 0.02}},
		// Grow composed with the storage axis: the pre-grow sort spills,
		// then the resident outputs rebalance onto the joiners.
		{Index: 914, Seed: 5, Algorithm: "dhsort", P: 4, PerRank: 512,
			Threads: 1, Dist: "zipf", Recovery: core.RecoveryRespawn,
			MemBudget: 512, SpillFanIn: 2, GrowRanks: 2,
			Plan: fault.Plan{Seed: 9, Watchdog: watchdog}},
	}
	for _, sc := range cases {
		if res := Run(sc); !res.Pass() {
			t.Errorf("%s failed: %s", sc, strings.Join(res.Failures, "; "))
		}
	}
}

// A grow scenario replays bit-identically — same digest, same makespan —
// so elasticity keeps the corpus's deterministic-replay guarantee.
func TestGrowReplaysBitIdentically(t *testing.T) {
	sc := Scenario{Index: 915, Seed: 5, Algorithm: "dhsort", P: 4, PerRank: 256,
		Threads: 1, Dist: "zipf", Recovery: core.RecoveryRespawn, GrowRanks: 2}
	a, b := Run(sc), Run(sc)
	if !a.Pass() || !b.Pass() {
		t.Fatalf("%s failed: %v / %v", sc, a.Failures, b.Failures)
	}
	if a.Digest != b.Digest || a.Makespan != b.Makespan {
		t.Fatalf("%s replay diverged: digest %x/%x makespan %v/%v",
			sc, a.Digest, b.Digest, a.Makespan, b.Makespan)
	}
}

// The repro command names the exact seed and index.
func TestReproCommand(t *testing.T) {
	got := ReproCommand(Scenario{Seed: 42, Index: 17})
	if got != "go run ./cmd/chaos -seed 42 -scenario 17 -v" {
		t.Fatalf("unexpected repro command %q", got)
	}
}

// Death scenarios must finish well under the watchdog (a wedged collective
// would otherwise stall the whole tier).
func TestDeathScenarioFinishesFast(t *testing.T) {
	var sc Scenario
	found := false
	for _, cand := range Corpus(pinnedSeed, 64) {
		if len(cand.Plan.Deaths) > 0 {
			sc, found = cand, true
			break
		}
	}
	if !found {
		t.Skip("no death scenario in prefix")
	}
	start := time.Now()
	if res := Run(sc); !res.Pass() {
		t.Fatalf("%s failed: %v", sc, res.Failures)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("death scenario took %v", d)
	}
}
