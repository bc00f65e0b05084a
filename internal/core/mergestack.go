package core

import (
	"slices"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/psort"
)

// runStack is the consumer of the fused exchanges: it buffers sorted runs on
// a size-balanced stack, merging two whenever the top is at least half the
// size of the one below, so every element is merged O(log P) times in total,
// yet merging still happens between communication rounds and overlaps
// in-flight transfers.  Merge time is charged to the Merge phase and
// advances the virtual clock, which is what models the overlap: a chunk
// whose arrival precedes the clock costs no wait.  The merges themselves run
// on the configured intra-rank thread budget via the psort co-rank pairwise
// merge.
type runStack[K any] struct {
	c       *comm.Comm
	ops     keys.Ops[K]
	cfg     Config
	threads int
	stack   [][]K
}

func newRunStack[K any](c *comm.Comm, ops keys.Ops[K], cfg Config) *runStack[K] {
	return &runStack[K]{c: c, ops: ops, cfg: cfg, threads: cfg.threads()}
}

// push adds one sorted run and collapses the stack while it is unbalanced.
// A received run must stay valid until finish (it is not copied); the own
// one, a view of the partition, is.
func (s *runStack[K]) push(from int, run []K) error {
	if len(run) == 0 {
		return nil
	}
	if from == s.c.Rank() {
		run = slices.Clone(run)
	}
	model := s.c.Model()
	s.stack = append(s.stack, run)
	for len(s.stack) >= 2 && len(s.stack[len(s.stack)-1])*2 >= len(s.stack[len(s.stack)-2]) {
		a, b := s.stack[len(s.stack)-2], s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-2]
		s.cfg.Recorder.Enter(metrics.Merge)
		merged := make([]K, len(a)+len(b))
		psort.ParallelMerge(merged, a, b, s.ops.Less, s.threads)
		if model != nil {
			s.c.Clock().Advance(model.Threaded(model.MergeCost(s.cfg.scaled(len(merged)), 2), s.threads))
		}
		s.cfg.Recorder.Enter(metrics.Exchange)
		s.stack = append(s.stack, merged)
	}
	return nil
}

// finish merges the remaining runs through the parallel binary merge tree
// and returns the fully merged result.
func (s *runStack[K]) finish() ([]K, error) {
	s.cfg.Recorder.Enter(metrics.Merge)
	acc := psort.MergeK(psort.BinaryTreeMerge, s.stack, s.ops.Less, s.threads)
	if model := s.c.Model(); model != nil && len(s.stack) > 1 {
		s.c.Clock().Advance(model.Threaded(model.MergeCost(s.cfg.scaled(len(acc)), len(s.stack)), s.threads))
	}
	s.stack = nil
	return acc, nil
}

func (s *runStack[K]) release() error { return nil }
