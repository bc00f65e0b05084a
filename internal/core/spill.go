package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/sortutil"
	"dhsort/internal/store"
	"dhsort/internal/xmath"
)

// The external-memory path (Config.MemBudget): when a rank's working set
// exceeds the budget, local sort produces budget-sized sorted runs in the
// out-of-core store, a loser-tree k-way merge combines them into the rank's
// sorted partition run, the search supersteps binary-search that run through
// a block cache, and the exchange either hands peers span references into
// that run (a shared store) or writes received chunks to scratch runs
// instead of accumulating slices.  Everything the collective observes — the
// communication operations, their payload sizes, and every cost-model call —
// is a function of element counts only, never of the store backing, which is
// what makes a memory-backed and a filesystem-backed run of the same input
// bit-identical in output and virtual makespan.

// spillActive reports whether the configuration runs the external-memory
// path for this key type.  It must be uniform across the collective (it
// depends only on the shared Config and Ops), because it switches the
// exchange to the fused 1-factor schedule on every rank.
func spillActive[K any](cfg Config, ops keys.Ops[K]) bool {
	return cfg.MemBudget > 0 && keys.Lossless(ops)
}

// spillPlan carries one rank's external-memory execution parameters.
type spillPlan[K any] struct {
	st     store.Store
	prefix string
	chunk  int // records per budget-sized resident chunk
	fanIn  int
	codec  *imageCodec[K] // this rank's one block of encode/decode scratch
	// refs: every rank can open every rank's partition run by its derivable
	// name (partRun) — the store is shared and the sort has no checkpoint,
	// whose restore would repoint the partition at a shard run — so the
	// exchange may send span references instead of keys (selectExchange).
	refs bool
}

// newSpillPlan resolves the store and chunk geometry for this rank.  The
// store is the configured shared one when present; otherwise a run-private
// in-memory store (budget-bounded execution without a scratch directory).
// The partition's checkpoint shards, when ck is not nil, live in the same
// store.
func newSpillPlan[K any](c *comm.Comm, ops keys.Ops[K], cfg Config, ck *checkpoint[K]) *spillPlan[K] {
	st := cfg.durableStore()
	shared := st != nil
	if !shared {
		st = store.NewMem()
	}
	chunk := int(cfg.MemBudget / int64(ops.Bytes()))
	if chunk < 1 {
		chunk = 1
	}
	return &spillPlan[K]{
		st:     st,
		prefix: spillPrefix(c.WorldRank()),
		chunk:  chunk,
		fanIn:  cfg.fanIn(),
		codec:  newImageCodec(ops),
		refs:   shared && ck == nil,
	}
}

// spillPrefix is the run-name prefix of world rank w's spilled sort.
func spillPrefix(w int) string { return fmt.Sprintf("spill/w%d", w) }

// partRun names world rank w's partition run, whatever its local-sort run
// count: every rank can derive every other's, which is what lets the
// reference exchange open its peers' runs.
func partRun(w int) string { return spillPrefix(w) + "/part" }

// Source abstracts this rank's locally sorted partition for the supersteps
// after Local Sort — the searches of Splitting and ComputeCuts, and the
// exchange's segments — so they, and any splitter Finder, run unchanged over
// a resident slice or a disk-resident run.  Its methods but Segment are safe
// for concurrent use.
type Source[K any] interface {
	Len() int
	// Segment returns the elements [lo, hi) of the partition: a view of a
	// resident one, a fresh slice decoded from a spilled one.
	Segment(lo, hi int) []K
	// Key returns the element at index i of the partition.
	Key(i int) K
	// At returns the key image at index i of the partition.
	At(i int) xmath.U128
	// Bounds returns the count l of elements ordering strictly before k and
	// the count u ordering at or before it, looking only at the index window
	// [lo, hi]; the caller guarantees lo <= l and u <= hi (the whole
	// partition, [0, Len()], always qualifies).  Both must agree with binary
	// search under ops.Less over the whole partition.
	Bounds(k K, lo, hi int) (l, u int)
}

// memSource is the resident Source.  Key types with an invertible uint64
// radix image (keys.RadixImageOps: every scalar) are searched as images — a
// monomorphic loop over []uint64 instead of an ops.Less call per step; the
// other key types search under ops.Less.
type memSource[K any] struct {
	s    []K
	ops  keys.Ops[K]
	img  keys.RadixImageOps[K] // nil: search under ops.Less
	imgs []uint64              // the image of every element of s when img != nil
}

// NewMemSource wraps a sorted resident partition as a Source, for sibling
// sorters that run their splitter finder outside the pipeline.
func NewMemSource[K any](sorted []K, ops keys.Ops[K]) Source[K] {
	return newMemSource(sorted, ops, nil)
}

// newMemSource wraps a sorted resident partition, encoding its images once
// (Uint64 keys are their own) into scratch drawn from ar — the rank's arena
// lies idle between Local Sort and Local Merge; nil allocates.
func newMemSource[K any](s []K, ops keys.Ops[K], ar *sortutil.Arena[K]) memSource[K] {
	m := memSource[K]{s: s, ops: ops}
	if im, ok := any(ops).(keys.RadixImageOps[K]); ok {
		m.img = im
		if self, ok := keys.RadixSelfImage(ops, s); ok {
			m.imgs = self
		} else {
			m.imgs = ar.Keys(len(s))
			im.RadixImages(m.imgs, s)
		}
	}
	return m
}

func (m memSource[K]) Len() int { return len(m.s) }

func (m memSource[K]) Segment(lo, hi int) []K { return m.s[lo:hi] }

func (m memSource[K]) Key(i int) K { return m.s[i] }

func (m memSource[K]) At(i int) xmath.U128 { return m.ops.ToBits(m.s[i]) }

func (m memSource[K]) Bounds(k K, lo, hi int) (int, int) {
	if m.img != nil {
		x, _ := m.img.RadixKey(k)
		return boundsImages(m.imgs, x, lo, hi)
	}
	l := lo + sortutil.LowerBound(m.s[lo:hi], k, m.ops.Less)
	u := l + sortutil.UpperBound(m.s[l:hi], k, m.ops.Less)
	return l, u
}

// boundsImages is Bounds over sorted uint64 images: the lower bound of x in
// [lo, hi], then its upper bound in what is left above it.
func boundsImages(imgs []uint64, x uint64, lo, hi int) (int, int) {
	l, h := lo, hi
	for l < h {
		m := int(uint(l+h) >> 1)
		if imgs[m] < x {
			l = m + 1
		} else {
			h = m
		}
	}
	u, h := l, hi
	for u < h {
		m := int(uint(u+h) >> 1)
		if imgs[m] <= x {
			u = m + 1
		} else {
			h = m
		}
	}
	return l, u
}

// extBlock is the partition run's search block: the resident footprint of
// the block cache is one block, and of the fence one record per block,
// regardless of how the partition was produced.
const extBlock = 512

// spillBlock is the record batch of every run write, segment read and merge
// drain: one store chunk.
const spillBlock = 4096

// imageCodec converts keys to and from their 128-bit run records a block at
// a time: through the bulk radix transforms for the scalar key types
// (keys.ScalarImages), through a ToBits/FromBits call per key otherwise.  It
// carries the one block of records being converted, so a rank's whole spilled
// sort encodes and decodes through the same 96 KiB; it is not for concurrent
// use.
type imageCodec[K any] struct {
	ops   keys.Ops[K]
	img   keys.RadixImageOps[K] // nil: per-key ToBits/FromBits
	shift uint
	tmp   [spillBlock]uint64
	imgs  [spillBlock]xmath.U128
}

func newImageCodec[K any](ops keys.Ops[K]) *imageCodec[K] {
	c := &imageCodec[K]{ops: ops}
	c.img, c.shift, _ = keys.ScalarImages(ops)
	return c
}

// encode returns the images of ks, in the codec's block; len(ks) <=
// spillBlock.
func (c *imageCodec[K]) encode(ks []K) []xmath.U128 {
	dst := c.imgs[:len(ks)]
	if c.img == nil {
		for i, k := range ks {
			dst[i] = c.ops.ToBits(k)
		}
		return dst
	}
	c.img.RadixImages(c.tmp[:], ks)
	for i, u := range c.tmp[:len(ks)] {
		dst[i] = xmath.U128{Hi: u << c.shift}
	}
	return dst
}

// decode stores the key of imgs[i] in dst[i]; len(imgs) <= spillBlock.
func (c *imageCodec[K]) decode(dst []K, imgs []xmath.U128) {
	if c.img == nil {
		for i, b := range imgs {
			dst[i] = c.ops.FromBits(b)
		}
		return
	}
	for i, b := range imgs {
		c.tmp[i] = b.Hi >> c.shift
	}
	c.img.RadixKeys(dst, c.tmp[:len(imgs)])
}

// fenceStore is the store the partition run is written through: its writer
// for the run called name keeps the image of every extBlock-th record — the
// fence the searches of extPartition start from — as the records stream
// past.  It wraps any Store and changes nothing the inner store sees.
type fenceStore struct {
	store.Store
	name string
	w    *fenceWriter
}

func (s *fenceStore) Create(name string) (store.Writer, error) {
	w, err := s.Store.Create(name)
	if err != nil || name != s.name {
		return w, err
	}
	s.w = &fenceWriter{Writer: w}
	return s.w, nil
}

type fenceWriter struct {
	store.Writer
	n     int64
	fence []xmath.U128
}

func (w *fenceWriter) Append(recs []xmath.U128) error {
	for i := int(-w.n & (extBlock - 1)); i < len(recs); i += extBlock {
		w.fence = append(w.fence, recs[i])
	}
	w.n += int64(len(recs))
	return w.Writer.Append(recs)
}

// extPartition is a sorted partition living as a sealed run in the store.
// Resident are the fence — the image of every extBlock-th record, 16 bytes
// per 8 KiB of run — and a one-block cache behind a mutex (the per-splitter
// searches fork across the thread budget): a search narrows to one block on
// the fence and reads at most that block.  A store read failure mid-search
// panics — graceful degradation on corrupt runs belongs to the checkpoint
// restore path, which audits before trusting.
type extPartition[K any] struct {
	st    store.Store
	name  string
	count int64
	codec *imageCodec[K]

	mu    sync.Mutex
	rdr   store.Reader
	fence []xmath.U128 // fence[j] is record j*extBlock; nil until loadFence
	blk   []xmath.U128
	blkLo int64
}

// openExtPartition wraps the sealed run name.  fence is the one captured
// while the run was written; nil has the first search read it back.
func openExtPartition[K any](st store.Store, name string, codec *imageCodec[K], fence []xmath.U128) (*extPartition[K], error) {
	count, err := st.Len(name)
	if err != nil {
		return nil, err
	}
	return &extPartition[K]{st: st, name: name, count: count, codec: codec, fence: fence}, nil
}

// reset repoints the partition at another sealed run (checkpoint restore)
// and drops all cached state.
func (e *extPartition[K]) reset(name string, count int64) {
	e.dropCache()
	e.mu.Lock()
	e.name, e.count = name, count
	e.mu.Unlock()
}

// dropCache models the loss of a crashed process's volatile state: the
// fence, the block cache and the open reader go away, the sealed run on the
// store does not.
func (e *extPartition[K]) dropCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rdr != nil {
		e.rdr.Close()
		e.rdr = nil
	}
	e.fence, e.blk, e.blkLo = nil, nil, 0
}

func (e *extPartition[K]) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rdr == nil {
		return nil
	}
	err := e.rdr.Close()
	e.rdr = nil
	return err
}

func (e *extPartition[K]) Len() int { return int(e.count) }

func (e *extPartition[K]) At(i int) xmath.U128 { return e.img(int64(i)) }

// Key decodes the image at index i: the spill path runs only for lossless
// key types.
func (e *extPartition[K]) Key(i int) K { return e.codec.ops.FromBits(e.img(int64(i))) }

// img returns the key image at record i through the block cache.
func (e *extPartition[K]) img(i int64) xmath.U128 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i >= e.blkLo && i < e.blkLo+int64(len(e.blk)) {
		return e.blk[i-e.blkLo]
	}
	lo := i - i%extBlock
	want := min(e.count-lo, extBlock)
	if cap(e.blk) < int(want) {
		e.blk = make([]xmath.U128, want)
	}
	e.blk = e.blk[:want]
	e.readAt(lo, e.blk)
	e.blkLo = lo
	return e.blk[i-lo]
}

// readAt fills dst with the records at [rec, rec+len(dst)); the caller holds
// the mutex.
func (e *extPartition[K]) readAt(rec int64, dst []xmath.U128) {
	if e.rdr == nil {
		r, err := e.st.Open(e.name)
		if err != nil {
			panic(fmt.Errorf("core: spilled partition %q: %w", e.name, err))
		}
		e.rdr = r
	}
	if err := e.rdr.SeekRecord(rec); err != nil {
		panic(fmt.Errorf("core: spilled partition %q: %w", e.name, err))
	}
	for len(dst) > 0 {
		n, err := e.rdr.Read(dst)
		if err != nil && err != io.EOF {
			panic(fmt.Errorf("core: spilled partition %q: %w", e.name, err))
		}
		if n == 0 {
			panic(fmt.Errorf("core: spilled partition %q ended %d records early", e.name, len(dst)))
		}
		dst = dst[n:]
	}
}

// loadFence returns the fence, reading it back from the run (one record per
// block) when the writer's copy is gone: a partition opened over a run this
// process did not write, or restored after a crash.
func (e *extPartition[K]) loadFence() []xmath.U128 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fence == nil {
		e.fence = make([]xmath.U128, (e.count+extBlock-1)/extBlock)
		for j := range e.fence {
			e.readAt(int64(j)*extBlock, e.fence[j:j+1])
		}
	}
	return e.fence
}

// search returns the first index in [lo, hi) whose image satisfies the
// monotone pred, hi when none does: a binary search of the fence records
// inside the window, in memory, then of the one block they leave.
func (e *extPartition[K]) search(lo, hi int, pred func(xmath.U128) bool) int {
	fence := e.loadFence()
	jlo, jhi := (lo+extBlock-1)/extBlock, (hi+extBlock-1)/extBlock // fence records at [lo, hi)
	j := jlo + sort.Search(jhi-jlo, func(i int) bool { return pred(fence[jlo+i]) })
	if j > jlo {
		lo = (j-1)*extBlock + 1 // the last fence record failing pred
	}
	if j < jhi {
		hi = j * extBlock // the first one satisfying it
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return pred(e.img(int64(lo + i))) })
}

// Bounds searches the stored images with needle ToBits(k): the spill path
// runs only for lossless key types, whose embedding is an order isomorphism.
// Each of the two searches reads at most one block, and none when it ends in
// the cached one.
func (e *extPartition[K]) Bounds(k K, lo, hi int) (int, int) {
	needle := e.codec.ops.ToBits(k)
	l := e.search(lo, hi, func(x xmath.U128) bool { return !x.Less(needle) })
	u := e.search(l, hi, func(x xmath.U128) bool { return needle.Less(x) })
	return l, u
}

// Segment decodes the record range [lo, hi) into a fresh slice, a block at a
// time, through the rank's one codec block.
func (e *extPartition[K]) Segment(lo, hi int) []K {
	if hi <= lo {
		return nil
	}
	out := make([]K, hi-lo)
	for at := 0; at < len(out); at += spillBlock {
		b := e.codec.imgs[:min(spillBlock, len(out)-at)]
		e.mu.Lock()
		e.readAt(int64(lo+at), b)
		e.mu.Unlock()
		e.codec.decode(out[at:], b)
	}
	return out
}

// writeRunKeys seals ks (in order) as the named run, a block of key images
// at a time; a failed write leaves no run behind (store.Seal).
func writeRunKeys[K any](st store.Store, name string, ks []K, codec *imageCodec[K]) error {
	return store.Seal(st, name, func(w store.Writer) error {
		for ; len(ks) > 0; ks = ks[min(spillBlock, len(ks)):] {
			if err := w.Append(codec.encode(ks[:min(spillBlock, len(ks))])); err != nil {
				return err
			}
		}
		return nil
	})
}

// extSortLocal is the Local Sort superstep of the external-memory path:
// budget-sized chunks are sorted resident through the same kernel dispatch
// as the in-memory sort (each chunk priced on the virtual clock), sealed as
// store runs, and merged by the loser tree into the rank's sorted partition
// run.  The merge is priced as the sequential tournament it is.
func extSortLocal[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg Config, plan *spillPlan[K]) (part *extPartition[K], err error) {
	model := c.Model()
	scale := cfg.scale()
	threads := cfg.threads()
	rec := cfg.Recorder
	n := len(local)

	nRuns := max((n+plan.chunk-1)/plan.chunk, 1) // an empty partition still seals an empty run
	partName := partRun(c.WorldRank())
	st := &fenceStore{Store: plan.st, name: partName}
	buf := make([]K, min(plan.chunk, n))
	ar := &sortutil.Arena[K]{} // one kernel scratch for every run of the loop
	spans := make([]store.Span, 0, nRuns)
	defer func() {
		if err != nil {
			dropRuns(plan.st, append(spans, store.Span{Name: partName})) // best effort: err is the report
		}
	}()
	kernel := ""
	for i := 0; i < nRuns; i++ {
		lo := i * plan.chunk
		hi := lo + plan.chunk
		if hi > n {
			hi = n
		}
		buf = buf[:hi-lo]
		k, passes := LocalSortRuns(buf, [][]K{local[lo:hi]}, ops, cfg.Kernel, threads, ar)
		kernel = k
		if model != nil {
			c.Clock().Advance(LocalSortCost(model, k, int(float64(len(buf))*scale), passes, threads))
		}
		name := fmt.Sprintf("%s/ls%d", plan.prefix, i)
		if nRuns == 1 {
			name = partName // a single chunk is the partition run itself
		}
		if err := writeRunKeys(st, name, buf, plan.codec); err != nil {
			return nil, err
		}
		rec.AddSpill(1, int64(len(buf))*store.RecordBytes)
		spans = append(spans, store.Span{Name: name, Lo: 0, Hi: int64(len(buf))})
	}
	rec.SetLocalSort(kernel, threads)

	if len(spans) > 1 {
		if _, err := store.MergeSpans(st, spans, partName, plan.fanIn); err != nil {
			return nil, err
		}
		// A fan-in below the run count forces reduction passes: tmpRecs
		// records pass through intermediate runs before the final pass over
		// all n.  Both the pricing and the scratch-traffic counters see them;
		// the plan depends only on span lengths, so both stay
		// backing-independent.
		tmpRuns, tmpRecs := mergePassStats(spans, plan.fanIn)
		if model != nil {
			c.Clock().Advance(model.MergeCost(int(float64(int64(n)+tmpRecs)*scale), min(len(spans), plan.fanIn)))
		}
		rec.AddSpill(1+tmpRuns, (int64(n)+tmpRecs)*store.RecordBytes)
		if err := dropRuns(plan.st, spans); err != nil {
			return nil, err
		}
	}
	return openExtPartition(plan.st, partName, plan.codec, st.w.fence)
}

// dropRuns removes the runs behind spans and returns the first failure.
func dropRuns(st store.Store, spans []store.Span) error {
	var first error
	for _, s := range spans {
		if err := st.Remove(s.Name); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// mergePassStats is store.MergePlanStats over spans: the intermediate runs
// and records of the multi-pass reduction at the given fan-in.
func mergePassStats(spans []store.Span, fanIn int) (int, int64) {
	lens := make([]int64, len(spans))
	for i, s := range spans {
		lens[i] = s.Len()
	}
	return store.MergePlanStats(lens, fanIn)
}

// spillSink is the consumer of a spilled partition's exchange when peers
// cannot read each other's partition runs (a run-private store, a
// checkpoint) or P exceeds the fan-in: each received segment is sealed as a
// scratch run instead of accumulating in memory, and the final partition
// streams out of one loser-tree merge over those runs — priced as the
// sequential tournament merge.  spanMerge is the same merge without the
// staging.
type spillSink[K any] struct {
	c     *comm.Comm
	cfg   Config
	plan  *spillPlan[K]
	spans []store.Span
}

func (s *spillSink[K]) push(from int, seg []K) error {
	if len(seg) == 0 {
		return nil
	}
	name := fmt.Sprintf("%s/rx%d", s.plan.prefix, from)
	if err := writeRunKeys(s.plan.st, name, seg, s.plan.codec); err != nil {
		return err
	}
	s.cfg.Recorder.AddSpill(1, int64(len(seg))*store.RecordBytes)
	s.spans = append(s.spans, store.Span{Name: name, Lo: 0, Hi: int64(len(seg))})
	return nil
}

func (s *spillSink[K]) finish() ([]K, error) {
	s.cfg.Recorder.Enter(metrics.Merge)
	m, err := store.NewMerger(s.plan.st, s.spans, s.plan.fanIn, s.plan.prefix+"/rxm")
	if err != nil {
		return nil, err
	}
	return drainMerge(s.c, s.cfg, s.plan, m, s.spans)
}

// release removes the received runs, whichever way the exchange ended.
func (s *spillSink[K]) release() error { return dropRuns(s.plan.st, s.spans) }

// drainMerge decodes the whole of m — the merge of the non-empty spans —
// into this rank's sorted partition and closes it.  It is priced as the
// sequential tournament over the spans plus the records of any reduction
// pass at the plan's fan-in, which also count as scratch traffic; the pass
// plan depends only on span lengths, so both stay backing-independent.
func drainMerge[K any](c *comm.Comm, cfg Config, plan *spillPlan[K], m *store.Merger, spans []store.Span) ([]K, error) {
	defer m.Close()
	out := make([]K, m.Total())
	for at := 0; at < len(out); {
		n, err := m.NextBatch(plan.codec.imgs[:min(spillBlock, len(out)-at)])
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, fmt.Errorf("core: spilled merge ended %d records early", len(out)-at)
		}
		plan.codec.decode(out[at:], plan.codec.imgs[:n])
		at += n
	}
	if len(spans) > 1 {
		tmpRuns, tmpRecs := mergePassStats(spans, plan.fanIn)
		if tmpRuns > 0 {
			cfg.Recorder.AddSpill(tmpRuns, tmpRecs*store.RecordBytes)
		}
		if model := c.Model(); model != nil {
			c.Clock().Advance(model.MergeCost(int(float64(int64(len(out))+tmpRecs)*cfg.scale()), min(len(spans), plan.fanIn)))
		}
	}
	return out, nil
}

// spanMerge is the consumer of the reference row (selectExchange), fed by
// spanRounds: no segment travels or is staged, because each arrives as a
// span of its sender's sealed partition run, and the final partition
// streams out of one loser-tree merge reading those spans in place.  The
// merge sees spillSink's non-empty spans in spillSink's order (own first,
// then round order), so its output, its ties and its price are the same.
type spanMerge[K any] struct {
	c     *comm.Comm
	cfg   Config
	plan  *spillPlan[K]
	rdrs  []store.Reader // rdrs[q] reads rank q's partition run until q's span arrives
	spans []store.Span   // the non-empty spans arrived so far, in push order
	open  []store.Reader // their readers, handed to the merge by finish
}

// openRuns opens a reader on every rank's partition run.  All of them are
// sealed by now: every rank's Local Sort precedes its part in ComputeCuts'
// ALLTOALLs, whose results reach this rank only once every rank has
// contributed.
func (s *spanMerge[K]) openRuns() error {
	s.rdrs = make([]store.Reader, s.c.Size())
	for q := range s.rdrs {
		r, err := s.plan.st.Open(partRun(s.c.WorldRankOf(q)))
		if err != nil {
			return err
		}
		s.rdrs[q] = r
	}
	return nil
}

// pushSpan takes rank from's segment, a span of its partition run, and keeps
// it with the reader openRuns opened on that run.
func (s *spanMerge[K]) pushSpan(from int, sp store.Span) error {
	if want := partRun(s.c.WorldRankOf(from)); sp.Name != want {
		return fmt.Errorf("core: rank %d sent a span of %q, want %q", from, sp.Name, want)
	}
	r := s.rdrs[from]
	s.rdrs[from] = nil
	if sp.Len() == 0 {
		return r.Close()
	}
	s.spans = append(s.spans, sp)
	s.open = append(s.open, r)
	return nil
}

// push is never called: spanRounds, the one schedule selectExchange pairs
// with spanMerge, delivers spans through pushSpan.
func (s *spanMerge[K]) push(int, []K) error {
	return errors.New("core: the reference exchange delivers spans, not keys")
}

func (s *spanMerge[K]) finish() ([]K, error) {
	s.cfg.Recorder.Enter(metrics.Merge)
	rdrs := s.open
	s.open = nil // the merge owns them from here, even when building it fails
	m, err := store.NewMergerFrom(s.spans, rdrs)
	if err != nil {
		return nil, err
	}
	return drainMerge(s.c, s.cfg, s.plan, m, s.spans)
}

// release closes the readers no merge took over, whichever way the exchange
// ended.  The runs themselves belong to their senders.
func (s *spanMerge[K]) release() error {
	var first error
	for _, r := range append(s.rdrs, s.open...) {
		if r != nil {
			if err := r.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
