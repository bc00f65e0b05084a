package bench

import (
	"fmt"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/stats"
	"dhsort/internal/workload"
)

// Grow is the one grow recipe, entered by every rank of c (a communicator
// spanning the world) with its sorted partition out: rank 0 spawns n
// joiners, which AwaitGrow while the incumbents run the Grow collective;
// GrowRebalance spreads the partitions over the grown communicator under
// cfg (a joiner's without the recorder); and every rank hands its share to
// then.  join, when set, wraps each joiner's part and decides its verdict.
// A failed grow leaves the incumbents recovered on c (revoke, agree,
// shrink) with out and the failure.  Rank 0 waits for the joiners before
// it returns, so that every rank has ended when Run reads the world.
func Grow(w *comm.World, c *comm.Comm, n int, out []uint64, cfg core.Config,
	join func(jc *comm.Comm, grow func() error) error,
	then func(nc *comm.Comm, part []uint64) ([]uint64, error)) ([]uint64, error) {
	joiners := make([]int, n)
	for i := range joiners {
		joiners[i] = c.Size() + i
	}
	// step runs the recipe's collective half on a communicator and then;
	// a typed unwind becomes its error.
	step := func(grown func() *comm.Comm, mine []uint64, cfg core.Config) (part []uint64, err error) {
		if terr := comm.Try(func() {
			nc := grown()
			part, err = then(nc, core.GrowRebalance(nc, mine, keys.Uint64{}, cfg))
		}); terr != nil {
			return nil, terr
		}
		return part, err
	}
	var spawned *comm.Spawned
	if c.Rank() == 0 {
		jcfg := cfg
		jcfg.Recorder = nil
		var err error
		if spawned, err = w.Spawn(n, func(jc *comm.Comm) error {
			grow := func() error {
				_, err := step(func() *comm.Comm { return comm.AwaitGrow(jc, 0) }, nil, jcfg)
				return err
			}
			if join == nil {
				return grow()
			}
			return join(jc, grow)
		}); err != nil {
			return nil, err
		}
	}
	part, err := step(func() *comm.Comm { return c.Grow(joiners) }, out, cfg)
	if err != nil {
		c.Revoke()
		alive, _ := c.Agree(nil)
		c.Shrink(alive)
		part = out
	}
	if spawned != nil {
		if werr := spawned.Wait(); werr != nil && err == nil {
			err = fmt.Errorf("joiners: %w", werr)
		}
	}
	return part, err
}

// ElasticStudy is an EXTENSION, not a paper figure: the autoscaler's
// makespan-vs-static-P ablation.  Two back-to-back streams of total keys
// each model a load step: a world provisioned at the low watermark sorts
// both (cheap, slow second stream), a world provisioned at the high
// watermark sorts both (fast, pays for idle capacity the whole time), and
// the elastic world grows between the streams — paying the rank-join,
// grow-collective and rebalance cost once to run the second stream at full
// width.  The second stream is Run's post step.
func ElasticStudy(o Options) error {
	p, step, perRank := 8, 4, 4096
	if o.Full {
		p, step, perRank = 16, 8, 16384
	}
	total := p * perRank
	model := simnet.SuperMUC(suiteRanksPerNode, true)
	cols := dhsortCols(o, 0, core.Config{})
	cfg := cols[0].Cfg

	// Each row is (ranks, joiners): static low, static high, grown.
	shapes := [][2]int{{p, 0}, {p + step, 0}, {p, step}}
	var rows []Trial
	for _, shape := range shapes {
		rows = append(rows, Trial{P: shape[0], N: total, Model: model,
			Spec: workload.Spec{Dist: workload.Uniform, Seed: o.Seed, Span: 1e9},
			Post: func(t Trial, w *comm.World, c *comm.Comm, _ *metrics.Recorder, out []uint64) ([]uint64, error) {
				// The second stream, verified on the communicator it ran on.
				second := func(c *comm.Comm, _ []uint64) ([]uint64, error) {
					spec := t.Spec
					spec.Seed += 7777777
					local, err := spec.Rank(c.Rank(), workload.LocalSize(total, c.Size(), c.Rank()))
					if err != nil {
						return nil, err
					}
					out, err := core.Sort(c, local, keys.Uint64{}, cfg)
					if err == nil && !core.IsGloballySorted(c, out, keys.Uint64{}) {
						err = fmt.Errorf("rank %d: stream not globally sorted", c.Rank())
					}
					return out, err
				}
				if shape[1] == 0 {
					return second(c, out)
				}
				return Grow(w, c, shape[1], out, cfg, nil, second)
			}})
	}
	grid, err := sweep(rows, cols, o.reps())
	if err != nil {
		return err
	}

	fmt.Fprintf(o.Out, "elastic worlds — two %d-key streams, uniform (modelled SuperMUC time; extension, no paper figure)\n", total)
	fmt.Fprintf(o.Out, "%-24s %7s %12s %12s\n", "provisioning", "ranks", "makespan", "vs static-hi")
	hi := stats.Summarize(grid[1][0].Runs).Median
	for i, shape := range shapes {
		m := stats.Summarize(grid[i][0].Runs)
		label, overhead := fmt.Sprintf("static p=%d", shape[0]), "—"
		if shape[1] > 0 {
			label = fmt.Sprintf("grow %d->%d mid-stream", shape[0], shape[0]+shape[1])
		}
		if i > 0 {
			overhead = fmt.Sprintf("%+.1f%%", 100*(float64(m.Median)/float64(hi)-1))
		}
		fmt.Fprintf(o.Out, "%-24s %7d %12v %12s\n", label, shape[0]+shape[1], m.Median.Round(time.Microsecond), overhead)
	}
	return nil
}
