package store

import (
	"fmt"
	"io"
	"math/bits"

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

// Merger streams the ascending k-way merge of sorted spans through a loser
// tree — the tournament merge of the Local Merge superstep (§V-C), lifted
// to disk-resident runs.  When the span count exceeds the fan-in, NewMerger
// first collapses groups of fanIn spans into intermediate runs (multi-pass
// external merging) until one pass suffices, so at most fanIn streams are
// ever open at once.  Records compare as unsigned 128-bit key images, with
// the input span order breaking ties — deterministic, and content-identical
// to any in-memory merge of the same runs because equal images decode to
// indistinguishable keys.
type Merger struct {
	st      Store
	streams []*spanStream
	heads   []head // heads[i] is stream i's current record
	tree    []int  // tree[0] is the winner; inner nodes park losers (-1 = empty)
	temps   []string
	total   int64
}

// NewMerger builds the merge of spans with the given fan-in (values < 2 take
// DefaultFanIn).  tmpPrefix names the intermediate runs of multi-pass
// merging (tmpPrefix + ".m<gen>"); callers running concurrently must use
// distinct prefixes.  Close releases the open streams and removes the
// intermediates.
func NewMerger(st Store, spans []Span, fanIn int, tmpPrefix string) (*Merger, error) {
	if fanIn < 2 {
		fanIn = DefaultFanIn
	}
	live := make([]Span, 0, len(spans))
	for _, s := range spans {
		if s.Len() > 0 {
			live = append(live, s)
		}
	}
	// Multi-pass reduction: collapse groups of fanIn spans into intermediate
	// runs until one pass covers the rest.  Every record passes through at
	// most ceil(log_fanIn(len(spans))) intermediates.
	var temps []string
	gen := 0
	for len(live) > fanIn {
		var next []Span
		for lo := 0; lo < len(live); lo += fanIn {
			hi := lo + fanIn
			if hi > len(live) {
				hi = len(live)
			}
			if hi-lo == 1 {
				next = append(next, live[lo])
				continue
			}
			tmp := fmt.Sprintf("%s.m%d", tmpPrefix, gen)
			gen++
			n, err := mergeTo(st, live[lo:hi], tmp)
			if err != nil {
				removeAll(st, temps)
				return nil, err
			}
			temps = append(temps, tmp)
			next = append(next, Span{Name: tmp, Lo: 0, Hi: n})
		}
		live = next
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
	if fanIn < 2 {
		fanIn = DefaultFanIn
	}
	var live []int64
	for _, n := range lens {
		if n > 0 {
			live = append(live, n)
		}
	}
	for len(live) > fanIn {
		var next []int64
		for lo := 0; lo < len(live); lo += fanIn {
			hi := lo + fanIn
			if hi > len(live) {
				hi = len(live)
			}
			if hi-lo == 1 {
				next = append(next, live[lo])
				continue
			}
			var sum int64
			for _, n := range live[lo:hi] {
				sum += n
			}
			runs++
			records += sum
			next = append(next, sum)
		}
		live = next
	}
	return runs, records
}

// newSinglePass opens one reader per non-empty span and plays the initial
// tournament; the caller guarantees the span count fits one pass.
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
// drops them: over the same spans both deliver the same records in the same
// tie order.  A reader opened before its run was removed still works (see
// Store.Remove), so a merge can outlive the runs it reads.
func NewMergerFrom(spans []Span, rdrs []Reader) (*Merger, error) {
	return mergeReaders(nil, spans, rdrs)
}

// mergeReaders builds the single-pass merge of spans over rdrs (nil for an
// empty span), taking ownership of every reader; st is where sealAs writes
// and Close removes intermediates.
func mergeReaders(st Store, spans []Span, rdrs []Reader) (*Merger, error) {
	m := &Merger{st: st, heads: make([]head, len(spans))}
	for i, s := range spans {
		if s.Len() == 0 {
			closeReaders(rdrs[i : i+1])
			continue
		}
		str, err := newSpanStream(rdrs[i], s, &m.heads[len(m.streams)])
		if err != nil {
			closeReaders(rdrs[i+1:])
			m.Close()
			return nil, err
		}
		m.streams = append(m.streams, str)
		m.total += s.Len()
	}
	k := len(m.streams)
	if k > 0 {
		m.tree = make([]int, k)
		for i := range m.tree {
			m.tree[i] = -1
		}
		for w := k - 1; w >= 0; w-- {
			m.replay(w)
		}
	}
	return m, nil
}

// Total returns the record count the merge will deliver.
func (m *Merger) Total() int64 { return m.total }

// NextBatch fills dst with the next records of the ascending merge and
// returns how many it delivered; 0 with a nil error (for a non-empty dst)
// means the merge is drained.  The loser-tree replay runs inline and without
// a data-dependent branch: the winner's record is emitted, its stream
// advanced, and at every node of its leaf-to-root path the parked loser and
// the climber are exchanged under a mask made from the comparison's borrow —
// which of two runs holds the smaller record is a coin flip no predictor
// learns.
func (m *Merger) NextBatch(dst []xmath.U128) (int, error) {
	k := len(m.streams)
	if k == 0 {
		return 0, nil
	}
	tree, heads := m.tree, m.heads
	w := tree[0]
	n := 0
	for ; n < len(dst) && heads[w].done == 0; n++ {
		h, s := &heads[w], m.streams[w]
		dst[n] = xmath.U128{Hi: h.hi, Lo: h.lo}
		if s.idx < s.fill {
			h.hi, h.lo = s.buf[s.idx].Hi, s.buf[s.idx].Lo
			s.idx++
		} else if err := s.refill(); err != nil {
			tree[0] = w
			return n, err
		}
		for node := (k + w) / 2; node > 0; node /= 2 {
			o := tree[node]
			swap := (o ^ w) & -int(precedes(heads, o, w))
			tree[node], w = o^swap, w^swap
		}
	}
	tree[0] = w
	return n, nil
}

// Close releases every open stream and removes the intermediate runs.
func (m *Merger) Close() error {
	var first error
	for _, s := range m.streams {
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	m.streams = nil
	first = firstErr(first, removeAll(m.st, m.temps))
	m.temps = nil
	return first
}

// head is a stream's current record as a compare key; a drained stream
// (done = 1) orders after every record.
type head struct{ done, hi, lo uint64 }

// precedes returns 1 when stream a wins against stream b — the smaller
// current record, the lower stream index breaking ties, drained streams
// always losing — and 0 otherwise: the borrow of the multi-word subtraction
// (done, hi, lo, index)[a] - (done, hi, lo, index)[b].
func precedes(heads []head, a, b int) uint64 {
	ha, hb := &heads[a], &heads[b]
	_, c := bits.Sub64(uint64(a), uint64(b), 0)
	_, c = bits.Sub64(ha.lo, hb.lo, c)
	_, c = bits.Sub64(ha.hi, hb.hi, c)
	_, c = bits.Sub64(ha.done, hb.done, c)
	return c
}

// replay re-runs stream w's leaf-to-root path: each inner node keeps the
// loser of the match played there and sends the winner up; tree[0] ends as
// the overall winner.  During the initial tournament an empty node (-1)
// parks the first arrival from its subtree and waits for the second, so
// every node plays exactly one match per build — the classic loser-tree
// construction, valid for any stream count.
func (m *Merger) replay(w int) {
	k := len(m.streams)
	for node := (k + w) / 2; node > 0; node /= 2 {
		if m.tree[node] == -1 {
			m.tree[node] = w
			return
		}
		if precedes(m.heads, m.tree[node], w) != 0 {
			m.tree[node], w = w, m.tree[node]
		}
	}
	m.tree[0] = w
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

// spanStream is one leaf of the loser tree: a buffered sequential cursor
// over a span.
type spanStream struct {
	span Span
	rdr  Reader
	buf  []xmath.U128
	idx  int
	fill int
	left int64
	head *head // the span's current record, in the Merger's compare array
}

// streamBuf is the per-stream read batch: fanIn * streamBuf records bound
// the merge's resident working set.
const streamBuf = 4096

// newSpanStream positions rdr, open on s's run at record 0, at the span and
// fills the first batch; on failure it closes rdr.
func newSpanStream(rdr Reader, s Span, h *head) (*spanStream, error) {
	if s.Lo > 0 {
		if err := rdr.SeekRecord(s.Lo); err != nil {
			rdr.Close()
			return nil, err
		}
	}
	str := &spanStream{span: s, rdr: rdr, buf: make([]xmath.U128, streamBuf), left: s.Len(), head: h}
	if err := str.refill(); err != nil {
		rdr.Close()
		return nil, err
	}
	return str, nil
}

// refill reads the next batch into the exhausted buffer and moves the head
// onto its first record; the head is marked done once the span is drained.
func (s *spanStream) refill() error {
	if s.left == 0 {
		s.head.done = 1
		return nil
	}
	want := int64(len(s.buf))
	if want > s.left {
		want = s.left
	}
	n, err := s.rdr.Read(s.buf[:want])
	if err != nil && err != io.EOF {
		return err
	}
	if int64(n) < want {
		return fmt.Errorf("%w: span %q[%d:%d) ended %d records early",
			ErrCorrupt, s.span.Name, s.span.Lo, s.span.Hi, s.left-int64(n))
	}
	s.head.hi, s.head.lo = s.buf[0].Hi, s.buf[0].Lo
	s.idx, s.fill = 1, n
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
