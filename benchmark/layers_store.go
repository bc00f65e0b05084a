package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"dhsort/internal/prng"
	"dhsort/internal/store"
	"dhsort/internal/xmath"
)

// countingStore is a store.Store passed as Config.Store that times and
// counts every call the sort makes into internal/store.  All ranks share
// it, so the counters are atomics.
type countingStore struct {
	inner store.Store

	calls, runs, seeks    atomic.Int64
	writeBytes, readBytes atomic.Int64
	busyNS                atomic.Int64
}

// storeCounts is one op's snapshot.
type storeCounts struct {
	calls, runs, seeks    int64
	writeBytes, readBytes int64
	busy                  time.Duration // summed over ranks
}

// reset returns the counters accumulated since the last reset and zeroes
// them.  Call it only between ops.
func (cs *countingStore) reset() storeCounts {
	return storeCounts{
		calls: cs.calls.Swap(0), runs: cs.runs.Swap(0), seeks: cs.seeks.Swap(0),
		writeBytes: cs.writeBytes.Swap(0), readBytes: cs.readBytes.Swap(0),
		busy: time.Duration(cs.busyNS.Swap(0)),
	}
}

// call books one store call that started at t0.
func (cs *countingStore) call(t0 time.Time) {
	cs.calls.Add(1)
	cs.busyNS.Add(int64(time.Since(t0)))
}

func (cs *countingStore) Create(name string) (store.Writer, error) {
	defer cs.call(time.Now())
	w, err := cs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingWriter{cs: cs, w: w}, nil
}

func (cs *countingStore) Open(name string) (store.Reader, error) {
	defer cs.call(time.Now())
	r, err := cs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingReader{cs: cs, r: r}, nil
}

func (cs *countingStore) Len(name string) (int64, error) {
	defer cs.call(time.Now())
	return cs.inner.Len(name)
}

func (cs *countingStore) Remove(name string) error {
	defer cs.call(time.Now())
	return cs.inner.Remove(name)
}

type countingWriter struct {
	cs *countingStore
	w  store.Writer
}

func (w *countingWriter) Append(recs []xmath.U128) error {
	defer w.cs.call(time.Now())
	w.cs.writeBytes.Add(int64(len(recs)) * store.RecordBytes)
	return w.w.Append(recs)
}

// Close seals the run: that is what store.runs_per_op counts.
func (w *countingWriter) Close() error {
	defer w.cs.call(time.Now())
	w.cs.runs.Add(1)
	return w.w.Close()
}

type countingReader struct {
	cs *countingStore
	r  store.Reader
}

func (r *countingReader) Read(dst []xmath.U128) (int, error) {
	defer r.cs.call(time.Now())
	n, err := r.r.Read(dst)
	r.cs.readBytes.Add(int64(n) * store.RecordBytes)
	return n, err
}

func (r *countingReader) SeekRecord(rec int64) error {
	defer r.cs.call(time.Now())
	r.cs.seeks.Add(1)
	return r.r.SeekRecord(rec)
}

func (r *countingReader) Close() error {
	defer r.cs.call(time.Now())
	return r.r.Close()
}

// Run geometry of sort-spill: a 256 KiB budget over 8-byte keys makes
// 32,768-record runs, eight per rank.
const (
	probeRunRecs = 32768
	probeRuns    = 8
)

// storeProbes calls the store directly with sort-spill's run sizes:
// sealing a run, reading it back, a seek plus a one-block read, and an
// 8-way MergeSpans.  prefix is "store.fs_" or "store.mem_".
func storeProbes(st store.Store, prefix string, out *sink) error {
	src := prng.NewSplitMix64(7)
	runs := make([][]xmath.U128, probeRuns)
	for i := range runs {
		recs := make([]xmath.U128, probeRunRecs)
		var acc uint64
		for j := range recs {
			acc += src.Uint64() >> 20 // ascending by construction
			recs[j] = xmath.U128{Hi: acc}
		}
		runs[i] = recs
	}
	const runMB = float64(probeRunRecs*store.RecordBytes) / 1e6
	name := func(i int) string { return fmt.Sprintf("probe/run%d", i) }

	var sealS, readS, seekUS, mergeS []float64
	buf := make([]xmath.U128, 4096)
	for rep := 0; rep < 3; rep++ {
		for i, recs := range runs {
			t0 := time.Now()
			w, err := st.Create(name(i))
			if err != nil {
				return err
			}
			if err := w.Append(recs); err != nil {
				w.Close()
				return err
			}
			if err := w.Close(); err != nil {
				return err
			}
			sealS = append(sealS, runMB/time.Since(t0).Seconds())
		}
		for i := range runs {
			t0 := time.Now()
			r, err := st.Open(name(i))
			if err != nil {
				return err
			}
			total := 0
			for {
				n, err := r.Read(buf)
				total += n
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					r.Close()
					return err
				}
			}
			r.Close()
			if total != probeRunRecs {
				return fmt.Errorf("%sprobe: read %d records back, want %d", prefix, total, probeRunRecs)
			}
			readS = append(readS, runMB/time.Since(t0).Seconds())
		}
		// The block-cached search of the spilled path: seek, read a block.
		r, err := st.Open(name(0))
		if err != nil {
			return err
		}
		block := buf[:256]
		for k := 0; k < 64; k++ {
			at := int64(prng.Uint64n(src, probeRunRecs-uint64(len(block))))
			t0 := time.Now()
			if err := r.SeekRecord(at); err != nil {
				r.Close()
				return err
			}
			if _, err := r.Read(block); err != nil {
				r.Close()
				return err
			}
			seekUS = append(seekUS, float64(time.Since(t0))/float64(time.Microsecond))
			if block[0] != runs[0][at] {
				r.Close()
				return fmt.Errorf("%sprobe: seek to %d read the wrong record", prefix, at)
			}
		}
		r.Close()

		spans := make([]store.Span, probeRuns)
		for i := range spans {
			spans[i] = store.Span{Name: name(i), Lo: 0, Hi: probeRunRecs}
		}
		t0 := time.Now()
		n, err := store.MergeSpans(st, spans, "probe/merged", probeRuns)
		if err != nil {
			return err
		}
		if n != probeRuns*probeRunRecs {
			return fmt.Errorf("%sprobe: merge produced %d records, want %d", prefix, n, probeRuns*probeRunRecs)
		}
		mergeS = append(mergeS, float64(n)/1e6/time.Since(t0).Seconds())
	}
	for i := range runs {
		if err := st.Remove(name(i)); err != nil {
			return err
		}
	}
	if err := st.Remove("probe/merged"); err != nil {
		return err
	}
	out.setMedian(prefix+"seal_mb_s", sealS)
	out.setMedian(prefix+"read_mb_s", readS)
	out.setMedian(prefix+"seek_read_us", seekUS)
	out.setMedian(prefix+"merge_k8_mrec_s", mergeS)
	return nil
}

// allStoreProbes runs storeProbes against a filesystem store under the
// run's scratch root and against the memory store.
func allStoreProbes(rc *runCtx, out *sink) error {
	dir, err := os.MkdirTemp(rc.scratch, "store-probe-")
	if err != nil {
		return err
	}
	if err := storeProbes(store.NewFS(dir), "store.fs_", out); err != nil {
		return fmt.Errorf("store probe (fs): %w", err)
	}
	if err := storeProbes(store.NewMem(), "store.mem_", out); err != nil {
		return fmt.Errorf("store probe (mem): %w", err)
	}
	return nil
}
