package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/simnet"
	"dhsort/internal/store"
	"dhsort/internal/testutil"
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
		{5, 188, 112920, 0xcb7c45b85916c30b},
		{13, 520, 302248, 0xb4a4e21754135e97},
		{64, 7038, 5094000, 0x883decc53c8c1b0b},
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
		total := w.TotalStats()
		if d := testutil.StatsDigest(w.RankStats()...); total.TotalMessages() != g.messages || total.TotalBytes() != g.bytes || d != g.digest {
			t.Errorf("p=%d: %d messages, %d bytes, per-rank digest %#x; want %d, %d, %#x",
				g.p, total.TotalMessages(), total.TotalBytes(), d, g.messages, g.bytes, g.digest)
		}
	}

	// Every exchange × merge row of the selection table, and the spilled row,
	// under both intra-node pricings at P = 8: the virtual makespan, the
	// per-rank Stats digest and the output digest, measured before the
	// exchange variants became one schedule feeding one consumer.  The
	// spilled-shared rows pass one store.Mem to every rank (P = 8 is within
	// the default fan-in); they were measured equal to the run-private
	// spilled rows before the exchange learned to send run references.
	models := []struct {
		name  string
		model *simnet.CostModel
	}{{"pgas", simnet.SuperMUC(4, true)}, {"mpi", simnet.SuperMUC(4, false)}}
	for _, m := range models {
		var rows []Config
		for ex := comm.AlltoallAuto; ex <= comm.ExchangeRMAPut; ex++ {
			for mg := MergeResort; mg <= MergeOverlap; mg++ {
				rows = append(rows, Config{Threads: 1, Exchange: ex, Merge: mg})
			}
		}
		rows = append(rows, Config{Threads: 1, MemBudget: 4096}, Config{Threads: 1, MemBudget: 4096, Store: store.NewMem()})
		for _, cfg := range rows {
			name := fmt.Sprintf("%s/%v/%v", m.name, cfg.Exchange, cfg.Merge)
			if cfg.Store != nil {
				name = m.name + "/spilled-shared"
			} else if cfg.MemBudget > 0 {
				name = m.name + "/spilled"
			}
			got := exchangeRow(t, m.model, cfg)
			if want, ok := exchangeGolden[name]; !ok || got != want {
				t.Errorf("%s: makespan, Stats digest, output digest %#x; want %#x", name, got, want)
			}
		}
	}

	// The default exchange and Local Merge on 2^14 uint64 keys: uniform over
	// the full range (8 varying digits) and zipf within 1e9 (constant high
	// bytes, fewer varying digits), at P = 8 and P = 17, so each rank merges
	// 8 and 17 received runs.
	for _, m := range models {
		for _, p := range []int{8, 17} {
			for _, d := range []struct {
				name string
				spec workload.Spec
			}{{"uniform", workload.Spec{Dist: workload.Uniform, Seed: 3}}, {"zipf", workload.Spec{Dist: workload.Zipf, Seed: 3, Span: 1e9}}} {
				name := fmt.Sprintf("%s/uint64/%s/p%d", m.name, d.name, p)
				got := sortRow(t, m.model, p, d.spec, Config{Threads: 1}, keys.Uint64{},
					func(ks []uint64) []uint64 { return ks }, func(v uint64) uint64 { return v })
				if want, ok := uint64Golden[name]; !ok || got != want {
					t.Errorf("%s: makespan, Stats digest, output digest %#x; want %#x", name, got, want)
				}
			}
		}
	}
}

// uint64Golden holds the uint64 rows of TestSortStatsGolden, as
// exchangeGolden does the float64 ones.
var uint64Golden = map[string][3]uint64{
	"pgas/uint64/uniform/p8":  {0x2e098, 0x86f1dfc3a1bd5153, 0x1ed152d81e5d68e0},
	"pgas/uint64/zipf/p8":     {0x243e2, 0xcb23edc31d4782cd, 0x3b90196fba7c2709},
	"pgas/uint64/uniform/p17": {0x5ab76, 0xc00690bcd855b60b, 0xd656f7557eb8887},
	"pgas/uint64/zipf/p17":    {0x51e4c, 0x446ccb9bddb18c92, 0xd78b9eaed2693cef},
	"mpi/uint64/uniform/p8":   {0x340eb, 0x86f1dfc3a1bd5153, 0x1ed152d81e5d68e0},
	"mpi/uint64/zipf/p8":      {0x294c3, 0xcb23edc31d4782cd, 0x3b90196fba7c2709},
	"mpi/uint64/uniform/p17":  {0x5faee, 0xc00690bcd855b60b, 0xd656f7557eb8887},
	"mpi/uint64/zipf/p17":     {0x56575, 0x446ccb9bddb18c92, 0xd78b9eaed2693cef},
}

// exchangeGolden holds the exchange rows of TestSortStatsGolden: the virtual
// makespan in ns, the per-rank Stats digest and the output digest.
var exchangeGolden = map[string][3]uint64{
	"pgas/auto/resort":              {0x356ce, 0x771e3ca86b985d18, 0x6bddbd7d062a5392},
	"pgas/auto/binary-tree":         {0x322bf, 0x771e3ca86b985d18, 0x6bddbd7d062a5392},
	"pgas/auto/overlap":             {0x34a0c, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
	"pgas/pairwise/resort":          {0x34f52, 0xe1b84c5ecf545d4a, 0x6bddbd7d062a5392},
	"pgas/pairwise/binary-tree":     {0x321b8, 0xe1b84c5ecf545d4a, 0x6bddbd7d062a5392},
	"pgas/pairwise/overlap":         {0x34a0c, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
	"pgas/one-factor/resort":        {0x3804d, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
	"pgas/one-factor/binary-tree":   {0x346b3, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
	"pgas/one-factor/overlap":       {0x34a0c, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
	"pgas/bruck/resort":             {0x33c7e, 0xeb440949812351b, 0x6bddbd7d062a5392},
	"pgas/bruck/binary-tree":        {0x302e4, 0xeb440949812351b, 0x6bddbd7d062a5392},
	"pgas/bruck/overlap":            {0x34a0c, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
	"pgas/hierarchical/resort":      {0x4f055, 0x19c5d0dd28f192c1, 0x6bddbd7d062a5392},
	"pgas/hierarchical/binary-tree": {0x4b913, 0x19c5d0dd28f192c1, 0x6bddbd7d062a5392},
	"pgas/hierarchical/overlap":     {0x34a0c, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
	"pgas/rma-put/resort":           {0x41389, 0x6a05f6e78d87cbd, 0x6bddbd7d062a5392},
	"pgas/rma-put/binary-tree":      {0x41389, 0x6a05f6e78d87cbd, 0x6bddbd7d062a5392},
	"pgas/rma-put/overlap":          {0x41389, 0x6a05f6e78d87cbd, 0x6bddbd7d062a5392},
	"pgas/spilled":                  {0x3604c, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
	"pgas/spilled-shared":           {0x3604c, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
	"mpi/auto/resort":               {0x3d0ad, 0x771e3ca86b985d18, 0x6bddbd7d062a5392},
	"mpi/auto/binary-tree":          {0x39f22, 0x771e3ca86b985d18, 0x6bddbd7d062a5392},
	"mpi/auto/overlap":              {0x3bb6e, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
	"mpi/pairwise/resort":           {0x3c734, 0xe1b84c5ecf545d4a, 0x6bddbd7d062a5392},
	"mpi/pairwise/binary-tree":      {0x3999a, 0xe1b84c5ecf545d4a, 0x6bddbd7d062a5392},
	"mpi/pairwise/overlap":          {0x3bb6e, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
	"mpi/one-factor/resort":         {0x3f1af, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
	"mpi/one-factor/binary-tree":    {0x3b815, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
	"mpi/one-factor/overlap":        {0x3bb6e, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
	"mpi/bruck/resort":              {0x3b2fb, 0xeb440949812351b, 0x6bddbd7d062a5392},
	"mpi/bruck/binary-tree":         {0x37961, 0xeb440949812351b, 0x6bddbd7d062a5392},
	"mpi/bruck/overlap":             {0x3bb6e, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
	"mpi/hierarchical/resort":       {0x5e60f, 0x19c5d0dd28f192c1, 0x6bddbd7d062a5392},
	"mpi/hierarchical/binary-tree":  {0x5b251, 0x19c5d0dd28f192c1, 0x6bddbd7d062a5392},
	"mpi/hierarchical/overlap":      {0x3bb6e, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
	"mpi/rma-put/resort":            {0x5d3db, 0x6a05f6e78d87cbd, 0x6bddbd7d062a5392},
	"mpi/rma-put/binary-tree":       {0x5d3db, 0x6a05f6e78d87cbd, 0x6bddbd7d062a5392},
	"mpi/rma-put/overlap":           {0x5d3db, 0x6a05f6e78d87cbd, 0x6bddbd7d062a5392},
	"mpi/spilled":                   {0x3d1ae, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
	"mpi/spilled-shared":            {0x3d1ae, 0x14b743667a0c8375, 0x6bddbd7d062a5392},
}

// exchangeRow sorts 2^14 normal float64 keys (seed 3) on 8 ranks under model
// and cfg and returns the row's three values.
func exchangeRow(t *testing.T, model *simnet.CostModel, cfg Config) [3]uint64 {
	t.Helper()
	return sortRow(t, model, 8, workload.Spec{Dist: workload.Normal, Seed: 3}, cfg, keys.Float64{}, workload.Floats, math.Float64bits)
}

// sortRow sorts 2^14 keys drawn from spec, as conv turns them into K, on p
// ranks under model and cfg and returns the virtual makespan in ns, the
// per-rank Stats digest and the digest of every rank's output, each key as
// bits(key).
func sortRow[K any](t *testing.T, model *simnet.CostModel, p int, spec workload.Spec, cfg Config, ops keys.Ops[K], conv func([]uint64) []K, bits func(K) uint64) [3]uint64 {
	t.Helper()
	const n = 1 << 14
	w, err := comm.NewWorld(p, model)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]K, p)
	err = w.Run(func(c *comm.Comm) error {
		ks, err := spec.Rank(c.Rank(), workload.LocalSize(n, p, c.Rank()))
		if err != nil {
			return err
		}
		outs[c.Rank()], err = Sort(c, conv(ks), ops, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b []byte
	for _, out := range outs {
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(len(out)))
		for _, v := range out {
			b = binary.LittleEndian.AppendUint64(b, bits(v))
		}
		h.Write(b)
	}
	return [3]uint64{uint64(w.Makespan()), testutil.StatsDigest(w.RankStats()...), h.Sum64()}
}
