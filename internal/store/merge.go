package store

import (
	"fmt"
	"io"

	"dhsort/internal/sortutil"
	"dhsort/internal/xmath"
)

// Span addresses a sorted record range [Lo, Hi) of a sealed run — the unit
// the external merge consumes.  A whole run is Span{Name, 0, Len(Name)}; a
// sub-range lets the exchange treat one segment of the sorted partition run
// as its own input without copying it.
type Span struct {
	Name   string
	Lo, Hi int64
}

// Len returns the span's record count.
func (s Span) Len() int64 { return s.Hi - s.Lo }

// DefaultFanIn is the merge fan-in when the caller does not set one: the
// number of runs merged simultaneously in one pass.  Spilling a working set
// at 1/8 of memory produces 8 local-sort runs, so the default completes the
// common case in a single pass while keeping open-stream state small.
const DefaultFanIn = 8

// Merger streams the ascending k-way merge of sorted spans — the Local
// Merge superstep (§V-C) lifted to disk-resident runs — a block at a time.
// Each NextBatch is one round: every stream offers a window of its buffered
// records, the frontier is the smallest last record among the windows that
// do not end their stream, every stream gives up the prefix of its window
// up to the frontier, and a binary tree of branch-free two-way merges
// (sortutil.MergeU128) writes those prefixes out.  No record past a window
// can precede the frontier, so the rounds concatenate to the merge.  When the
// span count exceeds the fan-in, NewMerger first collapses groups of fanIn
// spans into intermediate runs (multi-pass external merging) until one pass
// suffices, so at most fanIn streams are ever open at once.  Records compare
// as unsigned 128-bit key images; equal records are identical bits, so the
// output is content-identical to any in-memory merge of the same runs, and
// which span an equal record came from cannot be observed.
type Merger struct {
	st      Store
	streams []*spanStream  // every stream, for Close
	live    []*spanStream  // the streams with records left, in span order
	runs    [][]xmath.U128 // a round's prefixes: the merge tree's inputs
	tmp     []xmath.U128   // the merge tree's other buffer, grown to a round's length
	stage   []xmath.U128   // a round's output when dst is shorter than the stream count
	staged  []xmath.U128   // its undelivered records
	temps   []string
	total   int64
}

// NewMerger builds the merge of spans with the given fan-in (values < 2 take
// DefaultFanIn).  tmpPrefix names the intermediate runs of multi-pass
// merging (tmpPrefix + ".m<gen>"); callers running concurrently must use
// distinct prefixes.  Close releases the open streams and removes the
// intermediates.
func NewMerger(st Store, spans []Span, fanIn int, tmpPrefix string) (*Merger, error) {
	var temps []string
	live, err := reduce(spans, Span.Len, fanIn, func(group []Span) (Span, error) {
		tmp := fmt.Sprintf("%s.m%d", tmpPrefix, len(temps))
		n, err := mergeTo(st, group, tmp)
		if err != nil {
			return Span{}, err
		}
		temps = append(temps, tmp)
		return Span{Name: tmp, Lo: 0, Hi: n}, nil
	})
	if err != nil {
		removeAll(st, temps)
		return nil, err
	}
	m, err := newSinglePass(st, live)
	if err != nil {
		removeAll(st, temps)
		return nil, err
	}
	m.temps = temps
	return m, nil
}

// MergePlanStats reports the multi-pass reduction NewMerger would perform
// for the given span lengths and fan-in without running it: the number of
// intermediate runs written and the records passing through them.  Callers
// use it to account scratch traffic and price the extra passes — the plan
// is a pure function of the lengths, so the accounting is deterministic and
// backing-independent.
func MergePlanStats(lens []int64, fanIn int) (runs int, records int64) {
	reduce(lens, func(n int64) int64 { return n }, fanIn, func(group []int64) (int64, error) {
		var sum int64
		for _, n := range group {
			sum += n
		}
		runs++
		records += sum
		return sum, nil
	})
	return runs, records
}

// reduce is the one multi-pass reduction plan, walked by NewMerger to run it
// and by MergePlanStats to price it: drop the empty inputs (size reports an
// input's record count), then collapse consecutive groups of fanIn (values
// < 2 take DefaultFanIn) into one input each with merge until one pass of at
// most fanIn covers the rest, and return those.  A trailing group of one is
// carried over unmerged.  Every record passes through at most
// ceil(log_fanIn(len(in))) intermediates.
func reduce[T any](in []T, size func(T) int64, fanIn int, merge func([]T) (T, error)) ([]T, error) {
	if fanIn < 2 {
		fanIn = DefaultFanIn
	}
	live := make([]T, 0, len(in))
	for _, v := range in {
		if size(v) > 0 {
			live = append(live, v)
		}
	}
	for len(live) > fanIn {
		var next []T
		for lo := 0; lo < len(live); lo += fanIn {
			group := live[lo:min(lo+fanIn, len(live))]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			v, err := merge(group)
			if err != nil {
				return nil, err
			}
			next = append(next, v)
		}
		live = next
	}
	return live, nil
}

// newSinglePass opens one reader per non-empty span and fills each stream's
// first batch; the caller guarantees the span count fits one pass.
func newSinglePass(st Store, spans []Span) (*Merger, error) {
	rdrs := make([]Reader, len(spans))
	for i, s := range spans {
		if s.Len() == 0 {
			continue
		}
		r, err := st.Open(s.Name)
		if err != nil {
			closeReaders(rdrs)
			return nil, err
		}
		rdrs[i] = r
	}
	return mergeReaders(st, spans, rdrs)
}

// NewMergerFrom is the single-pass merge of spans read through readers the
// caller already holds: rdrs[i] is open on spans[i].Name, at record 0.  It
// owns every reader from the call on (Close, or a failed call, closes them)
// and runs no reduction pass, so the caller keeps len(spans) within its
// fan-in.  Empty spans are dropped, their readers closed, exactly as NewMerger
// drops them: over the same spans both deliver the same records.  A reader
// opened before its run was removed still works (see Store.Remove), so a
// merge can outlive the runs it reads.
func NewMergerFrom(spans []Span, rdrs []Reader) (*Merger, error) {
	return mergeReaders(nil, spans, rdrs)
}

// mergeReaders builds the single-pass merge of spans over rdrs (nil for an
// empty span), taking ownership of every reader; st is where sealAs writes
// and Close removes intermediates.
func mergeReaders(st Store, spans []Span, rdrs []Reader) (*Merger, error) {
	m := &Merger{st: st}
	for i, s := range spans {
		if s.Len() == 0 {
			closeReaders(rdrs[i : i+1])
			continue
		}
		str, err := newSpanStream(rdrs[i], s)
		if err != nil {
			closeReaders(rdrs[i+1:])
			m.Close()
			return nil, err
		}
		m.streams = append(m.streams, str)
		m.total += s.Len()
	}
	m.live = append([]*spanStream(nil), m.streams...)
	m.runs = make([][]xmath.U128, 0, len(m.streams))
	return m, nil
}

// Total returns the record count the merge will deliver.
func (m *Merger) Total() int64 { return m.total }

// NextBatch fills dst with the next records of the ascending merge and
// returns how many it delivered; 0 with a nil error (for a non-empty dst)
// means the merge is drained.  It runs one round, of len(dst)/k records per
// stream's window for k live streams; a dst shorter than k gets the records
// of a round staged in the Merger.  A warm NextBatch allocates nothing.
func (m *Merger) NextBatch(dst []xmath.U128) (int, error) {
	if len(m.staged) == 0 && len(dst) < len(m.live) {
		if m.stage == nil {
			m.stage = make([]xmath.U128, len(m.streams))
		}
		n, err := m.round(m.stage[:len(m.live)])
		m.staged = m.stage[:n]
		if err != nil {
			return 0, err
		}
	}
	if len(m.staged) > 0 {
		n := copy(dst, m.staged)
		m.staged = m.staged[n:]
		return n, nil
	}
	if len(m.live) == 0 {
		return 0, nil
	}
	return m.round(dst)
}

// round merges the next block of records into dst (len(dst) ≥ the live
// stream count) and returns its length: at least one window, at most dst.
func (m *Merger) round(dst []xmath.U128) (int, error) {
	w := min(len(dst)/len(m.live), streamBuf)
	var f xmath.U128 // the frontier
	bounded := false
	for _, s := range m.live {
		if s.fill-s.idx < w && s.left > 0 {
			if err := s.topUp(); err != nil {
				return 0, err
			}
		}
		if end := min(s.idx+w, s.fill); end < s.fill || s.left > 0 {
			if last := s.buf[end-1]; !bounded || last.Less(f) {
				f, bounded = last, true
			}
		}
	}
	runs, n := m.runs[:0], 0
	for _, s := range m.live {
		win := s.buf[s.idx:min(s.idx+w, s.fill)]
		if bounded {
			win = win[:upperBound(win, f)]
		}
		if len(win) > 0 {
			runs = append(runs, win)
			s.idx += len(win)
			n += len(win)
		}
	}
	if len(m.tmp) < n {
		m.tmp = make([]xmath.U128, min(len(dst), len(m.live)*streamBuf))
	}
	sortutil.MergeU128(dst[:n], m.tmp, runs)
	live := m.live[:0]
	for _, s := range m.live {
		if s.idx < s.fill || s.left > 0 {
			live = append(live, s)
		}
	}
	clear(m.live[len(live):])
	m.live = live
	return n, nil
}

// upperBound returns the length of the prefix of the sorted win that is ≤ f.
func upperBound(win []xmath.U128, f xmath.U128) int {
	lo, n := 0, len(win)
	for n > 0 {
		half := n / 2
		if f.Less(win[lo+half]) {
			n = half
		} else {
			lo, n = lo+half+1, n-half-1
		}
	}
	return lo
}

// Close releases every open stream and removes the intermediate runs.
func (m *Merger) Close() error {
	var first error
	for _, s := range m.streams {
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	m.streams, m.live, m.staged = nil, nil, nil
	first = firstErr(first, removeAll(m.st, m.temps))
	m.temps = nil
	return first
}

// mergeTo merges spans (at most one pass's worth) into a new sealed run and
// returns its record count.
func mergeTo(st Store, spans []Span, out string) (int64, error) {
	sub, err := newSinglePass(st, spans)
	if err != nil {
		return 0, err
	}
	defer sub.Close()
	return sub.sealAs(out)
}

// MergeSpans merges sorted spans into the sealed run out with the given
// fan-in and returns its record count.
func MergeSpans(st Store, spans []Span, out string, fanIn int) (int64, error) {
	m, err := NewMerger(st, spans, fanIn, out+".tmp")
	if err != nil {
		return 0, err
	}
	defer m.Close()
	return m.sealAs(out)
}

// sealAs drains the merge into the new sealed run out and returns its record
// count.
func (m *Merger) sealAs(out string) (int64, error) {
	var total int64
	err := Seal(m.st, out, func(w Writer) error {
		buf := make([]xmath.U128, streamBuf)
		for {
			n, err := m.NextBatch(buf)
			if err != nil || n == 0 {
				return err
			}
			if err := w.Append(buf[:n]); err != nil {
				return err
			}
			total += int64(n)
		}
	})
	return total, err
}

// Seal writes one run: it creates name, lets fill append the records, and
// closes the writer.  When fill or the close fails the run is closed and
// removed, so a failed write never leaves a sealed, healthy-looking short
// run behind — Open(name) is ErrNotFound afterwards.
func Seal(st Store, name string, fill func(Writer) error) error {
	w, err := st.Create(name)
	if err != nil {
		return err
	}
	err = fill(w)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		st.Remove(name) // best effort: err already reports the failed write
	}
	return err
}

// closeReaders closes every non-nil reader of rdrs, ignoring errors: it
// cleans up after a failure that already has its report.
func closeReaders(rdrs []Reader) {
	for _, r := range rdrs {
		if r != nil {
			r.Close()
		}
	}
}

func removeAll(st Store, names []string) error {
	var first error
	for _, n := range names {
		first = firstErr(first, st.Remove(n))
	}
	return first
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// spanStream is one input of the merge: a buffered sequential cursor over a
// span.  buf[idx:fill] are the read, unmerged records; left counts the
// span's records still unread.
type spanStream struct {
	span Span
	rdr  Reader
	buf  []xmath.U128
	idx  int
	fill int
	left int64
}

// streamBuf is the per-stream read batch: fanIn * streamBuf records bound
// the merge's resident working set, and no round's window is longer.
const streamBuf = 4096

// newSpanStream positions rdr, open on s's run at record 0, at the span and
// fills the first batch; on failure it closes rdr.
func newSpanStream(rdr Reader, s Span) (*spanStream, error) {
	if s.Lo > 0 {
		if err := rdr.SeekRecord(s.Lo); err != nil {
			rdr.Close()
			return nil, err
		}
	}
	str := &spanStream{span: s, rdr: rdr, buf: make([]xmath.U128, streamBuf), left: s.Len()}
	if err := str.topUp(); err != nil {
		rdr.Close()
		return nil, err
	}
	return str, nil
}

// topUp moves the unmerged records to the front of the batch and reads the
// span's next records behind them, as many as fit.
func (s *spanStream) topUp() error {
	have := copy(s.buf, s.buf[s.idx:s.fill])
	s.idx, s.fill = 0, have
	want := int(min(int64(len(s.buf)-have), s.left))
	n, err := s.rdr.Read(s.buf[have : have+want])
	if err != nil && err != io.EOF {
		return err
	}
	if n < want {
		return fmt.Errorf("%w: span %q[%d:%d) ended %d records early",
			ErrCorrupt, s.span.Name, s.span.Lo, s.span.Hi, s.left-int64(n))
	}
	s.fill += n
	s.left -= int64(n)
	return nil
}

func (s *spanStream) close() error {
	if s.rdr == nil {
		return nil
	}
	err := s.rdr.Close()
	s.rdr = nil
	return err
}
