package comm

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"dhsort/internal/fault"
	"dhsort/internal/simnet"
)

func TestOneFactorPartnerIsMatching(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5, 8, 9, 16, 17} {
		rounds := p
		if p%2 == 0 {
			rounds = p - 1
		}
		met := make([]map[int]bool, p)
		for i := range met {
			met[i] = map[int]bool{}
		}
		for r := 0; r < rounds; r++ {
			for rank := 0; rank < p; rank++ {
				j := oneFactorPartner(p, r, rank)
				if j == rank {
					t.Fatalf("p=%d r=%d: rank %d paired with itself", p, r, rank)
				}
				if j < 0 {
					if p%2 == 0 {
						t.Fatalf("p=%d r=%d: rank %d idle in even p", p, r, rank)
					}
					continue
				}
				// Symmetry: the partner must agree.
				if back := oneFactorPartner(p, r, j); back != rank {
					t.Fatalf("p=%d r=%d: %d->%d but %d->%d", p, r, rank, j, j, back)
				}
				if met[rank][j] {
					t.Fatalf("p=%d: pair (%d,%d) scheduled twice", p, rank, j)
				}
				met[rank][j] = true
			}
		}
		// Every pair must have met exactly once.
		for i := 0; i < p; i++ {
			if len(met[i]) != p-1 {
				t.Fatalf("p=%d: rank %d met %d partners, want %d", p, i, len(met[i]), p-1)
			}
		}
		// OneFactorSchedule yields the same matchings, idle rounds skipped.
		for rank := 0; rank < p; rank++ {
			var want, got [][2]int
			for r := 0; r < rounds; r++ {
				if j := oneFactorPartner(p, r, rank); j >= 0 {
					want = append(want, [2]int{r, j})
				}
			}
			for r, j := range OneFactorSchedule(p, rank) {
				got = append(got, [2]int{r, j})
			}
			if !slices.Equal(got, want) {
				t.Fatalf("p=%d rank %d: schedule %v, want %v", p, rank, got, want)
			}
		}
	}
}

func testAlltoallAlg(t *testing.T, alg AlltoallAlgorithm) {
	t.Helper()
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		run(t, p, func(c *Comm) error {
			blocks := make([][]int, p)
			for dst := range blocks {
				// Variable sizes incl. empty blocks.
				n := (c.Rank() + dst) % 4
				blk := make([]int, n)
				for k := range blk {
					blk[k] = c.Rank()*10000 + dst*100 + k
				}
				blocks[dst] = blk
			}
			got := AlltoallWith(c, blocks, alg, 1, nil)
			for src := range got {
				want := (src + c.Rank()) % 4
				if len(got[src]) != want {
					t.Errorf("alg=%v p=%d rank=%d: from %d got %d elems, want %d",
						alg, p, c.Rank(), src, len(got[src]), want)
					continue
				}
				for k, v := range got[src] {
					if v != src*10000+c.Rank()*100+k {
						t.Errorf("alg=%v p=%d rank=%d: wrong value from %d", alg, p, c.Rank(), src)
					}
				}
			}
			return nil
		})
	}
}

func TestAlltoallAlgorithms(t *testing.T) {
	for _, alg := range []AlltoallAlgorithm{AlltoallAuto, AlltoallPairwise, AlltoallOneFactor, AlltoallBruck} {
		t.Run(alg.String(), func(t *testing.T) { testAlltoallAlg(t, alg) })
	}
}

func TestAlltoallAlgorithmString(t *testing.T) {
	names := map[AlltoallAlgorithm]string{
		AlltoallAuto: "auto", AlltoallPairwise: "pairwise",
		AlltoallOneFactor: "one-factor", AlltoallBruck: "bruck",
		AlltoallHierarchical: "hierarchical", ExchangeRMAPut: "rma-put",
		AlltoallAlgorithm(9): "AlltoallAlgorithm(9)",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q", int(a), a.String())
		}
		// UnmarshalText inverts String on the named algorithms.
		var got AlltoallAlgorithm
		err := got.UnmarshalText([]byte(want))
		if a <= ExchangeRMAPut && (err != nil || got != a) {
			t.Errorf("UnmarshalText(%q) = %v, %v", want, got, err)
		}
		if a > ExchangeRMAPut && err == nil {
			t.Errorf("UnmarshalText(%q) accepted an unnamed algorithm", want)
		}
	}
	for a := AlltoallAuto; a <= ExchangeRMAPut; a++ {
		text, err := a.MarshalText()
		var got AlltoallAlgorithm
		if err != nil || got.UnmarshalText(text) != nil || got != a {
			t.Errorf("%v: MarshalText/UnmarshalText round trip gave %v (%q, %v)", a, got, text, err)
		}
		js, err := json.Marshal(a)
		if err != nil || string(js) != strconv.Quote(a.String()) || json.Unmarshal(js, &got) != nil || got != a {
			t.Errorf("%v: JSON round trip gave %v via %s (%v)", a, got, js, err)
		}
	}
	got := ExchangeRMAPut
	if err := json.Unmarshal([]byte(`""`), &got); err != nil || got != AlltoallAuto {
		t.Errorf(`UnmarshalJSON("") = %v, %v; want auto`, got, err)
	}
	for _, bad := range []string{`"nope"`, `"Auto"`, `3`} {
		if err := json.Unmarshal([]byte(bad), &got); err == nil {
			t.Errorf("UnmarshalJSON(%s) accepted an unknown name", bad)
		}
	}
	if err := got.UnmarshalText([]byte("nope")); err == nil || err.Error() != `unknown exchange algorithm "nope"` {
		t.Errorf(`UnmarshalText("nope") error = %v`, err)
	}
}

func TestBruckLowerLatencyForSmallBlocks(t *testing.T) {
	// Store-and-forward wins the latency game for tiny blocks: with P
	// ranks, pairwise pays P α-latencies per rank while Bruck pays
	// ceil(log2 P); the virtual makespan must reflect that.
	const p = 32
	mk := func(alg AlltoallAlgorithm) int64 {
		w, _ := NewWorld(p, simnet.SuperMUC(16, true))
		err := w.Run(func(c *Comm) error {
			blocks := make([][]int64, p)
			for i := range blocks {
				blocks[i] = []int64{int64(i)}
			}
			AlltoallWith(c, blocks, alg, 1, nil)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(w.Makespan())
	}
	if b, pw := mk(AlltoallBruck), mk(AlltoallPairwise); b >= pw {
		t.Errorf("bruck (%d ns) should beat pairwise (%d ns) on tiny blocks", b, pw)
	}
}

func TestPairwiseLowerVolumeForLargeBlocks(t *testing.T) {
	// For large blocks Bruck's log-hop forwarding costs extra volume; the
	// direct schedules must win.
	const p = 16
	mk := func(alg AlltoallAlgorithm) int64 {
		w, _ := NewWorld(p, simnet.SuperMUC(16, true))
		err := w.Run(func(c *Comm) error {
			blocks := make([][]int64, p)
			for i := range blocks {
				blocks[i] = make([]int64, 4096)
			}
			AlltoallWith(c, blocks, alg, 1, nil)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(w.Makespan())
	}
	if of, br := mk(AlltoallOneFactor), mk(AlltoallBruck); of >= br {
		t.Errorf("one-factor (%d ns) should beat bruck (%d ns) on large blocks", of, br)
	}
}

// TestSendrecv: SendrecvProtocol swaps payloads with the partner in one
// step on a reserved protocol tag.
func TestSendrecv(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		partner := c.Rank() ^ 1
		got := SendrecvProtocol(c, partner, protocolTagBase, []int{c.Rank()}, 1)
		if len(got) != 1 || got[0] != partner {
			t.Errorf("rank %d got %v", c.Rank(), got)
		}
		return nil
	})
}

// TestSendrecvRefPricesAsData: a reference standing in for n elements is
// tallied and priced exactly as SendrecvProtocol sending them — the same
// per-rank Stats and clocks under a cost model — and the partner's reference
// comes back.
func TestSendrecvRefPricesAsData(t *testing.T) {
	type ref struct{ from, n int }
	measure := func(byRef bool) ([]Stats, []time.Duration) {
		w, err := NewWorld(4, simnet.SuperMUC(2, true))
		if err != nil {
			t.Fatal(err)
		}
		clocks := make([]time.Duration, 4)
		err = w.Run(func(c *Comm) error {
			n := 100 * (c.Rank() + 1)
			for r, partner := range []int{c.Rank() ^ 1, c.Rank() ^ 2} {
				want := 100 * (partner + 1)
				if byRef {
					got := SendrecvRef[uint64](c, partner, protocolTagBase+r, ref{c.Rank(), n}, n, 3)
					if got != (ref{partner, want}) {
						t.Errorf("rank %d got %+v from %d", c.Rank(), got, partner)
					}
				} else if got := SendrecvProtocol(c, partner, protocolTagBase+r, make([]uint64, n), 3); len(got) != want {
					t.Errorf("rank %d got %d elements from %d", c.Rank(), len(got), partner)
				}
			}
			clocks[c.Rank()] = c.Clock().Now()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.RankStats(), clocks
	}
	dataStats, dataClocks := measure(false)
	refStats, refClocks := measure(true)
	if !reflect.DeepEqual(dataStats, refStats) || !reflect.DeepEqual(dataClocks, refClocks) {
		t.Errorf("references priced differently from the data:\n data %v %v\n  ref %v %v", dataStats, dataClocks, refStats, refClocks)
	}
}

func TestAlltoallAutoMatchesManual(t *testing.T) {
	// Auto must produce the same data as any manual algorithm.
	run(t, 6, func(c *Comm) error {
		blocks := make([][]string, 6)
		for d := range blocks {
			blocks[d] = []string{fmt.Sprintf("%d->%d", c.Rank(), d)}
		}
		got := AlltoallWith(c, blocks, AlltoallAuto, 1, nil)
		for src := range got {
			if got[src][0] != fmt.Sprintf("%d->%d", src, c.Rank()) {
				t.Errorf("wrong payload from %d: %q", src, got[src][0])
			}
		}
		return nil
	})
}

// raggedBlocks is rank's send side of a ragged exchange: block lengths 0-4,
// zero-length ones included, every element naming its origin, destination and
// position through mk.
func raggedBlocks[T any](rank, p int, mk func(src, dst, k int) T) [][]T {
	blocks := make([][]T, p)
	for dst := range blocks {
		blocks[dst] = make([]T, (rank*7+dst*3)%5)
		for k := range blocks[dst] {
			blocks[dst][k] = mk(rank, dst, k)
		}
	}
	return blocks
}

// bruckSizes are the world sizes of the store-and-forward tests: one rank,
// powers of two and their neighbours, a size with several set bits.
var bruckSizes = []int{1, 2, 3, 5, 12, 63, 64}

// exchangeWorlds are the worlds the exchange tests run on: shared memory,
// where every schedule is one rendezvous, and a cost model, where each runs
// as messages.
var exchangeWorlds = []struct {
	name  string
	model *simnet.CostModel
}{{"shared", nil}, {"model", simnet.SuperMUC(16, true)}}

func testBruckMatchesPairwise[T comparable](t *testing.T, mk func(src, dst, k int) T) {
	t.Helper()
	for _, world := range exchangeWorlds {
		for _, p := range bruckSizes {
			runModelled(t, p, world.model, func(c *Comm) error {
				blocks := raggedBlocks(c.Rank(), p, mk)
				want := AlltoallWith(c, blocks, AlltoallPairwise, 1, nil)
				for rep := 0; rep < 3; rep++ { // the second and third run on warm state and recycled lists
					got := AlltoallWith(c, blocks, AlltoallBruck, 1, nil)
					for src := range got {
						if (got[src] == nil) != (want[src] == nil) {
							t.Errorf("%s %T p=%d rank=%d: block from %d nil: %v, pairwise: %v", world.name, *new(T), p, c.Rank(), src, got[src] == nil, want[src] == nil)
						}
						// The caller owns its blocks: growing one must not reach
						// into a neighbour.
						got[src] = append(got[src], *new(T))
					}
					for src := range want {
						if !slices.Equal(got[src][:len(got[src])-1], want[src]) {
							t.Errorf("%s %T p=%d rank=%d rep=%d: block from %d is %v, pairwise delivers %v", world.name, *new(T), p, c.Rank(), rep, src, got[src], want[src])
						}
					}
				}
				return nil
			})
		}
	}
}

func TestAlltoallBruckMatchesPairwise(t *testing.T) {
	testBruckMatchesPairwise(t, func(src, dst, k int) int64 { return int64(src*10000 + dst*10 + k) })
	testBruckMatchesPairwise(t, func(src, dst, k int) float64 { return float64(src) + float64(dst)/128 + float64(k)/1024 })
	type rec struct { // 24 bytes
		Src, Dst int64
		Val      float64
	}
	testBruckMatchesPairwise(t, func(src, dst, k int) rec { return rec{int64(src), int64(dst), float64(k)} })
}

// bruckReference prices the store-and-forward schedule from first principles:
// the block from src to dst is forwarded once per set bit of
// (dst - src) mod p, in round k by whoever holds it then, at its elements
// plus a 16-byte header — what the per-block implementation this one
// replaced charged.  It returns every rank's sent bytes.
func bruckReference(p, elemBytes int, blockLen func(src, dst int) int) []int64 {
	sent := make([]int64, p)
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			at := src
			for rel, bit := (dst-src+p)%p, 1; bit < p; bit <<= 1 {
				if rel&bit != 0 {
					sent[at] += int64(blockLen(src, dst)*elemBytes + 16)
					at = (at + bit) % p
				}
			}
		}
	}
	return sent
}

func TestAlltoallBruckScheduleAndPricing(t *testing.T) {
	for _, p := range bruckSizes {
		w := run(t, p, func(c *Comm) error {
			AlltoallWith(c, raggedBlocks(c.Rank(), p, func(src, dst, k int) int64 { return 0 }), AlltoallBruck, 1, nil)
			return nil
		})
		rounds := int64(bits.Len(uint(p - 1)))
		want := bruckReference(p, 8, func(src, dst int) int { return (src*7 + dst*3) % 5 })
		for rank, st := range w.RankStats() {
			if got := st.TotalMessages(); got != rounds {
				t.Errorf("p=%d rank=%d sent %d messages, want ceil(log2 p) = %d", p, rank, got, rounds)
			}
			if got := st.TotalBytes(); got != want[rank] {
				t.Errorf("p=%d rank=%d is charged %d bytes, the per-block schedule charges %d", p, rank, got, want[rank])
			}
		}
	}
}

// TestAlltoallBruckUnderMessageFaults: drops, duplicates and reorders change
// neither the result nor the accounting beyond the fault counters (an
// injected duplicate is a second, priced transmission), every duplicate is
// discarded, and — the lists of a round travel unrecycled when the injector
// adjudicates messages — no rank ends up holding one.
func TestAlltoallBruckUnderMessageFaults(t *testing.T) {
	plan := fault.Plan{Seed: 20261003, DropRate: 0.15, DupRate: 0.15, ReorderRate: 0.15}
	mk := func(src, dst, k int) int64 { return int64(src*10000 + dst*10 + k) }
	for _, p := range []int{2, 5, 12, 64} {
		exchange := func(c *Comm) error {
			blocks := raggedBlocks(c.Rank(), p, mk)
			for rep := 0; rep < 4; rep++ {
				got := AlltoallWith(c, blocks, AlltoallBruck, 1, nil)
				for src := range got {
					if want := raggedBlocks(src, p, mk)[c.Rank()]; !slices.Equal(got[src], want) {
						t.Errorf("p=%d rank=%d rep=%d: block from %d is %v, want %v", p, c.Rank(), rep, src, got[src], want)
					}
				}
			}
			if held := len(freeListOf[roundBuf[int64]](c).free); c.w.inj.MessageFaults() && held > 0 {
				t.Errorf("p=%d rank=%d: holds %d recycled block lists under message faults", p, c.Rank(), held)
			}
			return nil
		}
		clean, faulty := run(t, p, exchange).TotalStats(), runFaults(t, p, nil, plan, exchange).TotalStats()
		f := faulty.Fault
		if f.Drops == 0 || f.Dups == 0 || f.Reorders == 0 {
			t.Errorf("p=%d: the plan injected nothing: %+v", p, f)
		}
		if f.Dedup != f.Dups {
			t.Errorf("p=%d: %d duplicates injected but %d discarded", p, f.Dups, f.Dedup)
		}
		if got, want := faulty.TotalMessages()-f.Dups, clean.TotalMessages(); got != want {
			t.Errorf("p=%d: %d messages delivered once under faults, %d without", p, got, want)
		}
		if faulty.TotalBytes() < clean.TotalBytes() {
			t.Errorf("p=%d: %d bytes under faults, %d without", p, faulty.TotalBytes(), clean.TotalBytes())
		}
	}
}

// TestAlltoallWarmAllocatesLittle pins what a warm exchange allocates under
// each schedule, on each of the exchange worlds.  AllocsPerRun counts the
// mallocs of the whole process, so with every rank making the same calls it
// pins the collective: once the free lists and mailbox queues have reached
// their working size an exchange allocates its result — its block tables
// and the copy of what the rank sends — and nothing per round, per block or
// per peer.
func TestAlltoallWarmAllocatesLittle(t *testing.T) {
	const warm, runs = 10, 30
	for _, sched := range roundSchedules {
		for _, world := range exchangeWorlds {
			perRank := map[int]float64{}
			for _, p := range []int{8, 64} {
				runModelled(t, p, world.model, func(c *Comm) error {
					blocks := raggedBlocks(c.Rank(), p, func(src, dst, k int) int64 { return 0 })
					exchange := func() { AlltoallWith(c, blocks, sched, 1, nil) }
					for i := 0; i < warm; i++ {
						exchange()
					}
					if c.Rank() != 0 {
						for i := 0; i < runs+1; i++ { // AllocsPerRun makes one extra warm-up call
							exchange()
						}
						return nil
					}
					perRank[p] = testing.AllocsPerRun(runs, exchange) / float64(p)
					return nil
				})
				t.Logf("%s %v P=%d: %.2f allocations per rank and call", world.name, sched, p, perRank[p])
				if perRank[p] > 8 {
					t.Errorf("%s %v: a warm exchange at P=%d allocates %.2f times per rank and call, want <= 8", world.name, sched, p, perRank[p])
				}
			}
			if d := perRank[64] - perRank[8]; d > 0.5 || d < -0.5 {
				t.Errorf("%s %v: allocations per rank and call depend on P: %.2f at P=8, %.2f at P=64", world.name, sched, perRank[8], perRank[64])
			}
		}
	}
}

// BenchmarkAlltoallBruckP64 is one round of the permutation-matrix exchange
// at the sort-latency shape — 64 ranks, two int64 counters per peer — on a
// persistent shared-memory world, so a rendezvous as in sort-latency, for
// paired runs against a parent commit.
func BenchmarkAlltoallBruckP64(b *testing.B) {
	const p = 64
	pw, err := NewPersistentWorld(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer pw.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := pw.Execute(func(c *Comm) error {
			lu := make([]int64, 2*p)
			blocks := make([][]int64, p)
			for d := range blocks {
				blocks[d] = lu[2*d : 2*d+2]
			}
			AlltoallWith(c, blocks, AlltoallBruck, 1, nil)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	st := pw.TotalStats()
	rounds := bits.Len(uint(p - 1))
	b.ReportMetric(float64(st.TotalMessages()-int64(p*rounds)), "msgs") // without the barrier Execute closes a job with
	b.ReportMetric(float64(rounds), "rounds")
}

// roundSchedules are the schedules rounds describes.
var roundSchedules = []AlltoallAlgorithm{AlltoallPairwise, AlltoallOneFactor, AlltoallBruck}

// roundTables lists every rank's rounds under sched, indexed by rank and tag
// offset; where a rank idles, the entry's to is -1.
func roundTables(sched AlltoallAlgorithm, p int) [][]round {
	tables := make([][]round, p)
	for me := range tables {
		tables[me] = make([]round, p)
		for tag := range tables[me] {
			tables[me][tag].to = -1
		}
		for rd := range rounds(sched, p, me) {
			tables[me][rd.tag] = rd
		}
	}
	return tables
}

// carried lists the (distance, origin) pairs of the blocks rd carries from
// rank at to rank to.
func carried(rd round, p, at, to int) [][2]int {
	var out [][2]int
	for delta := rd.first(p, at, to); delta < p; delta = rd.next(p, delta) {
		out = append(out, [2]int{delta, rd.origin(p, at, delta)})
	}
	return out
}

// priceRounds applies the simnet rules to the rounds of sched over a block
// table of blockLen elements of elemBytes each, every rank starting at time
// zero: a send advances the sender's clock by SendOverhead + InjectCost, the
// message arrives Latency later, and the receiver's clock moves to the later
// of its own time and the arrival.  It returns every rank's clock.
func priceRounds(m *simnet.CostModel, sched AlltoallAlgorithm, p, elemBytes int, blockLen func(src, dst int) int) []time.Duration {
	tables := roundTables(sched, p)
	clock := make([]time.Duration, p)
	arrival := make([]time.Duration, p)
	for tag := 0; tag < p; tag++ {
		for me := range tables {
			if rd := tables[me][tag]; rd.to >= 0 {
				nbytes := 0
				for _, b := range carried(rd, p, me, rd.to) {
					nbytes += blockLen(b[1], (b[1]+b[0])%p)*elemBytes + rd.header()
				}
				clock[me] += m.SendOverhead + m.InjectCost(me, rd.to, nbytes)
				arrival[rd.to] = clock[me] + m.Latency(me, rd.to)
			}
		}
		for me := range tables {
			if tables[me][tag].to >= 0 {
				clock[me] = max(clock[me], arrival[me])
			}
		}
	}
	return clock
}

// TestAlltoallRoundsDeliverAndPrice reads each schedule's rounds without a
// world.  A round's receiver receives from its sender under the same tag and
// expects the blocks it sends; the sender holds each of them; every block
// reaches its destination exactly once and stays there; Bruck takes
// ceil(log2 P) rounds and forwards each block popcount(δ) times; the
// 1-factor rounds are perfect matchings.  Priced over a ragged block table,
// empty blocks included, each rank's price is the clock the schedule leaves
// it at on a fresh model world.
func TestAlltoallRoundsDeliverAndPrice(t *testing.T) {
	sizes := []int{64}
	for p := 1; p <= 17; p++ {
		sizes = append(sizes, p)
	}
	for _, sched := range roundSchedules {
		for _, p := range sizes {
			tables := roundTables(sched, p)
			at := make([][]int, p)     // at[src][dst]: the rank holding the block
			hops := make([][]int, p)   // hops[src][dst]: messages it travelled in
			landed := make([][]int, p) // landed[src][dst]: arrivals at dst
			for src := range at {
				at[src], hops[src], landed[src] = make([]int, p), make([]int, p), make([]int, p)
				for dst := range at[src] {
					at[src][dst] = src
				}
			}
			for tag := 0; tag < p; tag++ {
				var moves [][3]int // (src, dst, to)
				for me := range tables {
					rd := tables[me][tag]
					if rd.to < 0 {
						continue
					}
					back := tables[rd.to][tag]
					if back.to < 0 || back.from != me {
						t.Fatalf("%v p=%d tag=%d: %d sends to %d, which receives from %d", sched, p, tag, me, rd.to, back.from)
					}
					sent := carried(rd, p, me, rd.to)
					if got := carried(back, p, back.from, rd.to); !slices.Equal(sent, got) {
						t.Fatalf("%v p=%d tag=%d: %d sends %v to %d, which expects %v", sched, p, tag, me, sent, rd.to, got)
					}
					for _, b := range sent {
						src, dst := b[1], (b[1]+b[0])%p
						if at[src][dst] != me || (dst == me && src != dst) {
							t.Fatalf("%v p=%d tag=%d: %d sends block %d->%d held by %d", sched, p, tag, me, src, dst, at[src][dst])
						}
						moves = append(moves, [3]int{src, dst, rd.to})
					}
					if sched == AlltoallOneFactor && (rd.to == me || rd.from != rd.to) {
						t.Fatalf("p=%d round %d: %d sends to %d and receives from %d", p, tag, me, rd.to, rd.from)
					}
				}
				for _, mv := range moves {
					src, dst, to := mv[0], mv[1], mv[2]
					at[src][dst] = to
					hops[src][dst]++
					if to == dst {
						landed[src][dst]++
					}
				}
				idle := 0
				for me := range tables {
					if tables[me][tag].to < 0 {
						idle++
					}
				}
				if sched == AlltoallOneFactor && tag < oneFactorRounds(p) && idle != p%2 {
					t.Fatalf("p=%d round %d: %d ranks idle", p, tag, idle)
				}
			}
			for src := range at {
				for dst := range at[src] {
					if at[src][dst] != dst || (src != dst && landed[src][dst] != 1) {
						t.Fatalf("%v p=%d: block %d->%d ends at %d after %d arrivals", sched, p, src, dst, at[src][dst], landed[src][dst])
					}
					if sched == AlltoallBruck && hops[src][dst] != bits.OnesCount(uint((dst-src+p)%p)) {
						t.Fatalf("p=%d: block %d->%d forwarded %d times", p, src, dst, hops[src][dst])
					}
				}
			}
			if n := len(slices.Collect(rounds(sched, p, 0))); sched == AlltoallBruck && n != bits.Len(uint(p-1)) {
				t.Fatalf("p=%d: bruck runs %d rounds", p, n)
			}

			model := simnet.SuperMUC(16, true)
			clocks := make([]time.Duration, p)
			runModelled(t, p, model, func(c *Comm) error {
				AlltoallWith(c, raggedBlocks(c.Rank(), p, func(src, dst, k int) int64 { return 0 }), sched, 1, nil)
				clocks[c.Rank()] = c.Clock().Now()
				return nil
			})
			price := priceRounds(model, sched, p, 8, func(src, dst int) int { return (src*7 + dst*3) % 5 })
			if !slices.Equal(price, clocks) {
				t.Errorf("%v p=%d: the rounds price to %v, the run ends at %v", sched, p, price, clocks)
			}
		}
	}
}
