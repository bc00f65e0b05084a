package core

import (
	"slices"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/sortutil"
)

// MergeRuns is the one in-memory merge of sorted runs, on the calling
// goroutine: sortutil's binary merge tree with a and b as its two buffers,
// returning whichever its last level wrote (a may be nil for two runs or
// fewer).  uint64 keys, their own image, merge branch-free as images
// (sortutil.MergeImages); every other key merges stably under its Less
// (sortutil.MergeFunc).
func MergeRuns[K any](a, b []K, runs [][]K, ops keys.Ops[K]) []K {
	if keys.ImageOf(ops).Self {
		return any(sortutil.MergeImages(any(a).([]uint64), any(b).([]uint64), any(runs).([][]uint64))).([]K)
	}
	return sortutil.MergeFunc(a, b, runs, ops.Less)
}

// runStack is the consumer of the fused exchanges: it buffers sorted runs on
// a size-balanced stack, merging two whenever the top is at least half the
// size of the one below, so every element is merged O(log P) times in total,
// yet merging still happens between communication rounds and overlaps
// in-flight transfers.  Merge time is charged to the Merge phase and
// advances the virtual clock, which is what models the overlap: a chunk
// whose arrival precedes the clock costs no wait.  The merges are MergeRuns;
// the clock prices them as parallel merges on the thread budget.
type runStack[K any] struct {
	c     *comm.Comm
	ops   keys.Ops[K]
	cfg   Config
	stack [][]K
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
		merged := MergeRuns(nil, make([]K, len(a)+len(b)), [][]K{a, b}, s.ops)
		if model != nil {
			s.c.Clock().Advance(model.Threaded(model.MergeCost(s.cfg.Scaled(len(merged)), 2), s.cfg.threads()))
		}
		s.cfg.Recorder.Enter(metrics.Exchange)
		s.stack = append(s.stack, merged)
	}
	return nil
}

// finish merges the remaining runs into buffers of their own and returns
// the fully merged result.
func (s *runStack[K]) finish() ([]K, error) {
	s.cfg.Recorder.Enter(metrics.Merge)
	total := 0
	for _, r := range s.stack {
		total += len(r)
	}
	var a []K
	if len(s.stack) > 2 {
		a = make([]K, total)
	}
	acc := MergeRuns(a, make([]K, total), s.stack, s.ops)
	if model := s.c.Model(); model != nil && len(s.stack) > 1 {
		s.c.Clock().Advance(model.Threaded(model.MergeCost(s.cfg.Scaled(len(acc)), len(s.stack)), s.cfg.threads()))
	}
	s.stack = nil
	return acc, nil
}

func (s *runStack[K]) release() error { return nil }
