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
		total := w.TotalStats()
		if d := statsDigest(w); total.TotalMessages() != g.messages || total.TotalBytes() != g.bytes || d != g.digest {
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
	for _, m := range []struct {
		name  string
		model *simnet.CostModel
	}{{"pgas", simnet.SuperMUC(4, true)}, {"mpi", simnet.SuperMUC(4, false)}} {
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
}

// exchangeGolden holds the exchange rows of TestSortStatsGolden: the virtual
// makespan in ns, the per-rank Stats digest and the output digest.
var exchangeGolden = map[string][3]uint64{
	"pgas/auto/resort":              {0x39872, 0x2da136882550e795, 0x6bddbd7d062a5392},
	"pgas/auto/binary-tree":         {0x36463, 0x2da136882550e795, 0x6bddbd7d062a5392},
	"pgas/auto/loser-tree":          {0x36463, 0x2da136882550e795, 0x6bddbd7d062a5392},
	"pgas/auto/overlap":             {0x38bb0, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"pgas/pairwise/resort":          {0x390f6, 0x5ea511cf7c83010b, 0x6bddbd7d062a5392},
	"pgas/pairwise/binary-tree":     {0x3635c, 0x5ea511cf7c83010b, 0x6bddbd7d062a5392},
	"pgas/pairwise/loser-tree":      {0x3635c, 0x5ea511cf7c83010b, 0x6bddbd7d062a5392},
	"pgas/pairwise/overlap":         {0x38bb0, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"pgas/one-factor/resort":        {0x3c1f1, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"pgas/one-factor/binary-tree":   {0x38857, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"pgas/one-factor/loser-tree":    {0x38857, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"pgas/one-factor/overlap":       {0x38bb0, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"pgas/bruck/resort":             {0x37e22, 0xb98a0ef99544b45f, 0x6bddbd7d062a5392},
	"pgas/bruck/binary-tree":        {0x34488, 0xb98a0ef99544b45f, 0x6bddbd7d062a5392},
	"pgas/bruck/loser-tree":         {0x34488, 0xb98a0ef99544b45f, 0x6bddbd7d062a5392},
	"pgas/bruck/overlap":            {0x38bb0, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"pgas/hierarchical/resort":      {0x531f9, 0xb5c070ba26043924, 0x6bddbd7d062a5392},
	"pgas/hierarchical/binary-tree": {0x4fab7, 0xb5c070ba26043924, 0x6bddbd7d062a5392},
	"pgas/hierarchical/loser-tree":  {0x4fab7, 0xb5c070ba26043924, 0x6bddbd7d062a5392},
	"pgas/hierarchical/overlap":     {0x38bb0, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"pgas/rma-put/resort":           {0x4552d, 0x6f4b8526edcde235, 0x6bddbd7d062a5392},
	"pgas/rma-put/binary-tree":      {0x4552d, 0x6f4b8526edcde235, 0x6bddbd7d062a5392},
	"pgas/rma-put/loser-tree":       {0x4552d, 0x6f4b8526edcde235, 0x6bddbd7d062a5392},
	"pgas/rma-put/overlap":          {0x4552d, 0x6f4b8526edcde235, 0x6bddbd7d062a5392},
	"pgas/spilled":                  {0x3a1f0, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"pgas/spilled-shared":           {0x3a1f0, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"mpi/auto/resort":               {0x420d9, 0x2da136882550e795, 0x6bddbd7d062a5392},
	"mpi/auto/binary-tree":          {0x3ef4e, 0x2da136882550e795, 0x6bddbd7d062a5392},
	"mpi/auto/loser-tree":           {0x3ef4e, 0x2da136882550e795, 0x6bddbd7d062a5392},
	"mpi/auto/overlap":              {0x40b9a, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"mpi/pairwise/resort":           {0x41760, 0x5ea511cf7c83010b, 0x6bddbd7d062a5392},
	"mpi/pairwise/binary-tree":      {0x3e9c6, 0x5ea511cf7c83010b, 0x6bddbd7d062a5392},
	"mpi/pairwise/loser-tree":       {0x3e9c6, 0x5ea511cf7c83010b, 0x6bddbd7d062a5392},
	"mpi/pairwise/overlap":          {0x40b9a, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"mpi/one-factor/resort":         {0x441db, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"mpi/one-factor/binary-tree":    {0x40841, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"mpi/one-factor/loser-tree":     {0x40841, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"mpi/one-factor/overlap":        {0x40b9a, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"mpi/bruck/resort":              {0x40327, 0xb98a0ef99544b45f, 0x6bddbd7d062a5392},
	"mpi/bruck/binary-tree":         {0x3c98d, 0xb98a0ef99544b45f, 0x6bddbd7d062a5392},
	"mpi/bruck/loser-tree":          {0x3c98d, 0xb98a0ef99544b45f, 0x6bddbd7d062a5392},
	"mpi/bruck/overlap":             {0x40b9a, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"mpi/hierarchical/resort":       {0x6363b, 0xb5c070ba26043924, 0x6bddbd7d062a5392},
	"mpi/hierarchical/binary-tree":  {0x6027d, 0xb5c070ba26043924, 0x6bddbd7d062a5392},
	"mpi/hierarchical/loser-tree":   {0x6027d, 0xb5c070ba26043924, 0x6bddbd7d062a5392},
	"mpi/hierarchical/overlap":      {0x40b9a, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"mpi/rma-put/resort":            {0x62407, 0x6f4b8526edcde235, 0x6bddbd7d062a5392},
	"mpi/rma-put/binary-tree":       {0x62407, 0x6f4b8526edcde235, 0x6bddbd7d062a5392},
	"mpi/rma-put/loser-tree":        {0x62407, 0x6f4b8526edcde235, 0x6bddbd7d062a5392},
	"mpi/rma-put/overlap":           {0x62407, 0x6f4b8526edcde235, 0x6bddbd7d062a5392},
	"mpi/spilled":                   {0x421da, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
	"mpi/spilled-shared":            {0x421da, 0x3bb9dff49662e102, 0x6bddbd7d062a5392},
}

// exchangeRow sorts 2^14 normal float64 keys (seed 3) on 8 ranks under model
// and cfg and returns the row's three values.
func exchangeRow(t *testing.T, model *simnet.CostModel, cfg Config) [3]uint64 {
	t.Helper()
	const p, n = 8, 1 << 14
	w, err := comm.NewWorld(p, model)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]float64, p)
	err = w.Run(func(c *comm.Comm) error {
		ks, err := workload.Spec{Dist: workload.Normal, Seed: 3}.Rank(c.Rank(), workload.LocalSize(n, p, c.Rank()))
		if err != nil {
			return err
		}
		outs[c.Rank()], err = Sort(c, workload.Floats(ks), keys.Float64{}, cfg)
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
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		h.Write(b)
	}
	return [3]uint64{uint64(w.Makespan()), statsDigest(w), h.Sum64()}
}

// statsDigest folds every rank's Stats, in rank order, through FNV-1a.
func statsDigest(w *comm.World) uint64 {
	h := fnv.New64a()
	for _, st := range w.RankStats() {
		fmt.Fprint(h, st)
	}
	return h.Sum64()
}
