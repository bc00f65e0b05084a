package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dhsort/internal/xmath"
)

func backings(t *testing.T) map[string]Store {
	t.Helper()
	return map[string]Store{
		"mem": NewMem(),
		"fs":  NewFS(t.TempDir()),
	}
}

func u(hi, lo uint64) xmath.U128 { return xmath.U128{Hi: hi, Lo: lo} }

func writeRun(t testing.TB, st Store, name string, recs []xmath.U128) {
	t.Helper()
	w, err := st.Create(name)
	if err != nil {
		t.Fatalf("Create(%q): %v", name, err)
	}
	// Append in two chunks to exercise multi-append sealing.
	half := len(recs) / 2
	if err := w.Append(recs[:half]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Append(recs[half:]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func readRun(t *testing.T, st Store, name string) []xmath.U128 {
	t.Helper()
	r, err := st.Open(name)
	if err != nil {
		t.Fatalf("Open(%q): %v", name, err)
	}
	defer r.Close()
	var out []xmath.U128
	buf := make([]xmath.U128, 7) // odd size to exercise partial batches
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Read(%q): %v", name, err)
		}
	}
}

func genRecs(n int, seed int64) []xmath.U128 {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]xmath.U128, n)
	for i := range recs {
		recs[i] = u(rng.Uint64()>>32, rng.Uint64())
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	for label, st := range backings(t) {
		t.Run(label, func(t *testing.T) {
			recs := genRecs(10007, 1)
			writeRun(t, st, "part/rt", recs)
			got := readRun(t, st, "part/rt")
			if len(got) != len(recs) {
				t.Fatalf("round trip: %d records, want %d", len(got), len(recs))
			}
			for i := range recs {
				if got[i] != recs[i] {
					t.Fatalf("record %d: got %v want %v", i, got[i], recs[i])
				}
			}
			n, err := st.Len("part/rt")
			if err != nil || n != int64(len(recs)) {
				t.Fatalf("Len = %d, %v; want %d", n, err, len(recs))
			}
		})
	}
}

func TestEmptyRun(t *testing.T) {
	for label, st := range backings(t) {
		t.Run(label, func(t *testing.T) {
			w, err := st.Create("empty")
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if n, err := st.Len("empty"); err != nil || n != 0 {
				t.Fatalf("Len = %d, %v; want 0, nil", n, err)
			}
			if got := readRun(t, st, "empty"); len(got) != 0 {
				t.Fatalf("read %d records from empty run", len(got))
			}
		})
	}
}

func TestNotFoundAndInvisibleUntilSealed(t *testing.T) {
	for label, st := range backings(t) {
		t.Run(label, func(t *testing.T) {
			if _, err := st.Open("missing"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Open(missing) = %v, want ErrNotFound", err)
			}
			if _, err := st.Len("missing"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Len(missing) = %v, want ErrNotFound", err)
			}
			w, err := st.Create("pending")
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append([]xmath.U128{u(0, 1)}); err != nil {
				t.Fatal(err)
			}
			if label == "mem" {
				// The memory backing keeps unsealed runs fully invisible.
				if _, err := st.Open("pending"); !errors.Is(err, ErrNotFound) {
					t.Fatalf("Open before seal = %v, want ErrNotFound", err)
				}
			} else {
				// The filesystem backing has no footer yet: corrupt, not sealed.
				if _, err := st.Open("pending"); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Open before seal = %v, want ErrCorrupt", err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Open("pending"); err != nil {
				t.Fatalf("Open after seal: %v", err)
			}
			if err := st.Remove("pending"); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Open("pending"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Open after Remove = %v, want ErrNotFound", err)
			}
			// Removing a missing run is not an error.
			if err := st.Remove("pending"); err != nil {
				t.Fatalf("double Remove: %v", err)
			}
		})
	}
}

func TestSeekRangedRead(t *testing.T) {
	for label, st := range backings(t) {
		t.Run(label, func(t *testing.T) {
			recs := genRecs(5000, 2)
			writeRun(t, st, "seek", recs)
			r, err := st.Open("seek")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if err := r.SeekRecord(4321); err != nil {
				t.Fatal(err)
			}
			buf := make([]xmath.U128, 100)
			n, err := r.Read(buf)
			if err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if n != 100 {
				t.Fatalf("ranged read got %d records, want 100", n)
			}
			for i := 0; i < n; i++ {
				if buf[i] != recs[4321+i] {
					t.Fatalf("record %d after seek: got %v want %v", i, buf[i], recs[4321+i])
				}
			}
			// Seek backwards and re-read from 0.
			if err := r.SeekRecord(0); err != nil {
				t.Fatal(err)
			}
			n, _ = r.Read(buf[:3])
			if n != 3 || buf[0] != recs[0] {
				t.Fatalf("re-read from 0: n=%d first=%v want %v", n, buf[0], recs[0])
			}
			if err := r.SeekRecord(int64(len(recs)) + 1); err == nil {
				t.Fatal("Seek past end succeeded")
			}
		})
	}
}

// The chunked framing round-trips at every size around the chunk boundary,
// whatever the Append and Read batch sizes (none of which divide the chunk).
func TestFSFramingRoundTrip(t *testing.T) {
	st := NewFS(t.TempDir())
	for _, n := range []int{0, 1, chunkRecs - 1, chunkRecs, chunkRecs + 1, 3*chunkRecs + 7} {
		for _, batch := range []int{1, 7, 1000, chunkRecs + 3, 2*chunkRecs + 5} {
			if batch == 1 && n > chunkRecs+1 {
				continue // covered at the smaller sizes
			}
			recs := genRecs(n, int64(n+batch))
			w, err := st.Create("rt")
			if err != nil {
				t.Fatal(err)
			}
			for at := 0; at < n; at += batch {
				if err := w.Append(recs[at:min(at+batch, n)]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := st.Open("rt")
			if err != nil {
				t.Fatalf("n=%d batch=%d: Open: %v", n, batch, err)
			}
			var got []xmath.U128
			buf := make([]xmath.U128, batch)
			for {
				k, err := r.Read(buf)
				got = append(got, buf[:k]...)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("n=%d batch=%d: Read: %v", n, batch, err)
				}
			}
			r.Close()
			if len(got) != n {
				t.Fatalf("n=%d batch=%d: read %d records back", n, batch, len(got))
			}
			for i := range recs {
				if got[i] != recs[i] {
					t.Fatalf("n=%d batch=%d: record %d: got %v want %v", n, batch, i, got[i], recs[i])
				}
			}
		}
	}
}

// A seek to the record before, at and after a chunk boundary, then a read
// that crosses the boundary (and the next one), on both backings.
func TestSeekAcrossChunkBoundary(t *testing.T) {
	for label, st := range backings(t) {
		t.Run(label, func(t *testing.T) {
			recs := genRecs(3*chunkRecs+7, 12)
			writeRun(t, st, "seek", recs)
			r, err := st.Open("seek")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for _, at := range []int{chunkRecs - 1, chunkRecs, chunkRecs + 1, 2*chunkRecs - 1, 0, 3*chunkRecs + 6} {
				for _, want := range []int{1, 3, 512, chunkRecs + 9} {
					if err := r.SeekRecord(int64(at)); err != nil {
						t.Fatal(err)
					}
					want = min(want, len(recs)-at)
					buf := make([]xmath.U128, want)
					for got := 0; got < want; {
						k, err := r.Read(buf[got:])
						if err != nil && err != io.EOF || k == 0 {
							t.Fatalf("seek %d, read %d: got %d records, then %d, %v", at, want, got, k, err)
						}
						got += k
					}
					for i := range buf {
						if buf[i] != recs[at+i] {
							t.Fatalf("seek %d, read %d: record %d: got %v want %v", at, want, i, buf[i], recs[at+i])
						}
					}
				}
			}
		})
	}
}

func TestInvalidNames(t *testing.T) {
	st := NewFS(t.TempDir())
	for _, name := range []string{"", "/abs", "a/../escape", ".."} {
		if _, err := st.Create(name); err == nil {
			t.Errorf("Create(%q) succeeded", name)
		}
	}
}

func TestFSTruncationDetectedAtOpen(t *testing.T) {
	dir := t.TempDir()
	st := NewFS(dir)
	writeRun(t, st, "trunc", genRecs(1000, 3))
	p := filepath.Join(dir, "trunc.run")
	fi, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(p, fi.Size()-RecordBytes); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Open("trunc"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open(truncated) = %v, want ErrCorrupt", err)
	}
	if _, err := st.Len("trunc"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Len(truncated) = %v, want ErrCorrupt", err)
	}
}

func TestFSBitFlipDetectedAtReadEnd(t *testing.T) {
	dir := t.TempDir()
	st := NewFS(dir)
	writeRun(t, st, "flip", genRecs(1000, 4))
	p := filepath.Join(dir, "flip.run")
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[500*RecordBytes+7] ^= 0x10 // flip one bit mid-data
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// The envelope (size/count) still agrees, so Open succeeds...
	r, err := st.Open("flip")
	if err != nil {
		t.Fatalf("Open(bit-flipped) = %v, want success (flip is caught at read end)", err)
	}
	defer r.Close()
	// ...but draining the run sequentially must surface the checksum mismatch.
	buf := make([]xmath.U128, 64)
	for {
		_, err := r.Read(buf)
		if err == io.EOF {
			t.Fatal("drained bit-flipped run without ErrCorrupt")
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Read = %v, want ErrCorrupt", err)
			}
			return
		}
	}
}

// drainErr reads a run to its end in 64-record batches and returns what
// stopped it: nil at io.EOF.
func drainErr(st Store, name string) error {
	r, err := st.Open(name)
	if err != nil {
		return err
	}
	defer r.Close()
	buf := make([]xmath.U128, 64)
	for {
		if _, err := r.Read(buf); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// Every single flipped bit of the two records on either side of a chunk
// boundary is caught by the end of a sequential read — and so is a pair of
// flips at the same bit position of two different 8-byte words, which a
// word-wise xor-multiply digest lets cancel.
func TestFSBitFlipsAtChunkBoundary(t *testing.T) {
	dir := t.TempDir()
	st := NewFS(dir)
	writeRun(t, st, "flip", genRecs(chunkRecs+10, 4))
	p := filepath.Join(dir, "flip.run")
	clean, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := drainErr(st, "flip"); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	flipped := func(bits ...int) error {
		raw := append([]byte(nil), clean...)
		for _, b := range bits {
			raw[b/8] ^= 1 << (b % 8)
		}
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return drainErr(st, "flip")
	}
	first := (chunkRecs - 1) * RecordBytes * 8 // first bit of the chunk's last record
	for b := first; b < first+2*RecordBytes*8; b++ {
		if err := flipped(b); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit %d flipped: drained with %v, want ErrCorrupt", b, err)
		}
	}
	for _, pair := range [][2]int{
		{63, 64 + 63},                     // bit 63 of a record's two words
		{first + 63, first + 128 + 63},    // the same, across the chunk boundary
		{first + 5, first + 128 + 64 + 5}, // a low bit, Lo word against Hi word
		{7, (chunkRecs+9)*128 + 7},        // first and last record of the run
	} {
		if err := flipped(pair[0], pair[1]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bits %v flipped: drained with %v, want ErrCorrupt", pair, err)
		}
	}
}

// A run sealed in the DHS1 layout (FNV-1a digest) is rejected at Open, never
// read under the wrong digest.
func TestFSRejectsDHS1(t *testing.T) {
	dir := t.TempDir()
	recs := genRecs(5, 8)
	sum := uint64(14695981039346656037)
	var raw []byte
	for _, r := range recs {
		raw = binary.LittleEndian.AppendUint64(raw, r.Lo)
		raw = binary.LittleEndian.AppendUint64(raw, r.Hi)
	}
	for _, b := range raw {
		sum = (sum ^ uint64(b)) * 1099511628211
	}
	raw = binary.LittleEndian.AppendUint32(raw, 0x44485331) // "DHS1"
	raw = binary.LittleEndian.AppendUint32(raw, RecordBytes)
	raw = binary.LittleEndian.AppendUint64(raw, uint64(len(recs)))
	raw = binary.LittleEndian.AppendUint64(raw, sum)
	if err := os.WriteFile(filepath.Join(dir, "old.run"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st := NewFS(dir)
	if _, err := st.Open("old"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open(DHS1 run) = %v, want ErrCorrupt", err)
	}
	if _, err := st.Len("old"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Len(DHS1 run) = %v, want ErrCorrupt", err)
	}
}

func TestFSBadMagic(t *testing.T) {
	dir := t.TempDir()
	st := NewFS(dir)
	writeRun(t, st, "magic", genRecs(10, 5))
	p := filepath.Join(dir, "magic.run")
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[len(raw)-footerBytes:], 0xdeadbeef)
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Open("magic"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open(bad magic) = %v, want ErrCorrupt", err)
	}
}

func TestCreateTruncatesPriorRun(t *testing.T) {
	for label, st := range backings(t) {
		t.Run(label, func(t *testing.T) {
			writeRun(t, st, "re", genRecs(100, 6))
			next := genRecs(10, 7)
			writeRun(t, st, "re", next)
			got := readRun(t, st, "re")
			if len(got) != len(next) {
				t.Fatalf("after rewrite: %d records, want %d", len(got), len(next))
			}
		})
	}
}

// sortedRecs returns n sorted records with duplicates (about n/4 distinct).
func sortedRecs(n int, seed int64) []xmath.U128 {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]xmath.U128, n)
	for i := range recs {
		recs[i] = u(uint64(rng.Intn(n/4+1)), uint64(rng.Intn(8)))
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Less(recs[j]) })
	return recs
}

func TestMergeSpans(t *testing.T) {
	for label, st := range backings(t) {
		t.Run(label, func(t *testing.T) {
			for _, tc := range []struct {
				runs, per, fanIn int
			}{
				{1, 500, 8},     // single run: pass-through
				{3, 1000, 8},    // one pass
				{8, 700, 8},     // exactly fan-in
				{9, 300, 8},     // one reduction round
				{20, 400, 2},    // binary fan-in, multiple reduction rounds
				{13, 1, 3},      // single-record runs
				{5, 0, 4},       // all empty
				{16, 12345, 16}, // wide single pass
			} {
				name := fmt.Sprintf("r%dx%df%d", tc.runs, tc.per, tc.fanIn)
				var spans []Span
				var all []xmath.U128
				for i := 0; i < tc.runs; i++ {
					recs := sortedRecs(tc.per, int64(100*i+tc.per))
					writeRun(t, st, fmt.Sprintf("%s/in%d", name, i), recs)
					spans = append(spans, Span{Name: fmt.Sprintf("%s/in%d", name, i), Lo: 0, Hi: int64(len(recs))})
					all = append(all, recs...)
				}
				sort.SliceStable(all, func(i, j int) bool { return all[i].Less(all[j]) })
				n, err := MergeSpans(st, spans, name+"/out", tc.fanIn)
				if err != nil {
					t.Fatalf("%s: MergeSpans: %v", name, err)
				}
				if n != int64(len(all)) {
					t.Fatalf("%s: merged %d records, want %d", name, n, len(all))
				}
				got := readRun(t, st, name+"/out")
				for i := range all {
					if got[i] != all[i] {
						t.Fatalf("%s: record %d: got %v want %v", name, i, got[i], all[i])
					}
				}
			}
		})
	}
}

func TestMergerSubSpansAndDeterminism(t *testing.T) {
	st := NewMem()
	base := sortedRecs(4000, 42)
	writeRun(t, st, "big", base)
	// Merge three overlapping sub-spans of one run plus a whole second run.
	other := sortedRecs(777, 43)
	writeRun(t, st, "other", other)
	spans := []Span{
		{Name: "big", Lo: 0, Hi: 1500},
		{Name: "big", Lo: 1500, Hi: 1500}, // empty, dropped
		{Name: "big", Lo: 1500, Hi: 4000},
		{Name: "other", Lo: 0, Hi: int64(len(other))},
	}
	want := append(append([]xmath.U128{}, base...), other...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Less(want[j]) })

	drain := func(fanIn, batch int) []xmath.U128 {
		m, err := NewMerger(st, spans, fanIn, "tmp/det")
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if m.Total() != int64(len(want)) {
			t.Fatalf("Total = %d, want %d", m.Total(), len(want))
		}
		var out []xmath.U128
		buf := make([]xmath.U128, batch)
		for {
			n, err := m.NextBatch(buf)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				return out
			}
			out = append(out, buf[:n]...)
		}
	}
	a, b := drain(0, streamBuf), drain(0, streamBuf)
	if len(a) != len(want) || len(b) != len(want) {
		t.Fatalf("drained %d/%d records, want %d", len(a), len(b), len(want))
	}
	for i := range want {
		if a[i] != want[i] || b[i] != a[i] {
			t.Fatalf("record %d: a=%v b=%v want=%v", i, a[i], b[i], want[i])
		}
	}
	// Every batch size delivers that same sequence (ties by span order), in
	// one pass and through a multi-pass reduction (fan-in 2 over three spans).
	for _, fanIn := range []int{0, 2} {
		for _, batch := range []int{1, 7, 4096} {
			got := drain(fanIn, batch)
			if len(got) != len(want) {
				t.Fatalf("fan-in %d, batch %d: drained %d records, want %d", fanIn, batch, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("fan-in %d, batch %d: record %d: got %v want %v", fanIn, batch, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReaderOutlivesRemove pins the Store.Remove contract the reference
// exchange relies on: a reader opened before its run is removed — one read
// sequentially, one seeked — still delivers the whole run on both backings,
// and the filesystem reader still audits the digest of its full sequential
// read.
func TestReaderOutlivesRemove(t *testing.T) {
	recs := genRecs(3*chunkRecs+123, 9) // several chunks and a partial one
	for label, st := range backings(t) {
		writeRun(t, st, "gone", recs)
		seq, err := st.Open("gone")
		if err != nil {
			t.Fatal(err)
		}
		seeked, err := st.Open("gone")
		if err != nil {
			t.Fatal(err)
		}
		if err := seeked.SeekRecord(chunkRecs + 5); err != nil {
			t.Fatal(err)
		}
		if err := st.Remove("gone"); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Open("gone"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: Open after Remove = %v, want ErrNotFound", label, err)
		}
		for _, c := range []struct {
			name string
			r    Reader
			want []xmath.U128
		}{{"sequential", seq, recs}, {"seeked", seeked, recs[chunkRecs+5:]}} {
			var got []xmath.U128
			buf := make([]xmath.U128, 1000)
			for {
				n, err := c.r.Read(buf)
				got = append(got, buf[:n]...)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s %s: Read after Remove: %v", label, c.name, err)
				}
			}
			if err := c.r.Close(); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(c.want) {
				t.Fatalf("%s %s: read %d records after Remove, want %d", label, c.name, len(got), len(c.want))
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("%s %s: record %d = %v, want %v", label, c.name, i, got[i], c.want[i])
				}
			}
		}
	}

	// The audit: a bit flipped under an open filesystem reader, whose run is
	// then removed, still surfaces as ErrCorrupt at the end of the read.
	dir := t.TempDir()
	st := NewFS(dir)
	writeRun(t, st, "rot", recs)
	r, err := st.Open("rot")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	f, err := os.OpenFile(filepath.Join(dir, "rot.run"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 2*chunkBytes+3); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := st.Remove("rot"); err != nil {
		t.Fatal(err)
	}
	buf := make([]xmath.U128, 1000)
	for {
		_, err := r.Read(buf)
		if err == io.EOF {
			t.Fatal("drained a rotted, removed run without ErrCorrupt")
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Read = %v, want ErrCorrupt", err)
			}
			break
		}
	}
}

// TestMergerFromOpenReaders: a merge over readers opened before their runs
// were removed delivers what NewMerger delivers over the same spans, empty
// span included, on both backings.
func TestMergerFromOpenReaders(t *testing.T) {
	for label, st := range backings(t) {
		base, other := sortedRecs(9000, 44), sortedRecs(777, 45)
		writeRun(t, st, "big", base)
		writeRun(t, st, "other", other)
		spans := []Span{
			{Name: "big", Lo: 0, Hi: 1500},
			{Name: "other", Lo: 0, Hi: int64(len(other))},
			{Name: "big", Lo: 1500, Hi: 1500}, // empty, dropped
			{Name: "big", Lo: 1500, Hi: 9000},
		}
		drain := func(m *Merger, err error) []xmath.U128 {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			var out []xmath.U128
			buf := make([]xmath.U128, 333)
			for {
				n, err := m.NextBatch(buf)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					return out
				}
				out = append(out, buf[:n]...)
			}
		}
		want := drain(NewMerger(st, spans, 0, "tmp/want"))
		rdrs := make([]Reader, len(spans))
		for i, s := range spans {
			r, err := st.Open(s.Name)
			if err != nil {
				t.Fatal(err)
			}
			rdrs[i] = r
		}
		for _, name := range []string{"big", "other"} {
			if err := st.Remove(name); err != nil {
				t.Fatal(err)
			}
		}
		got := drain(NewMergerFrom(spans, rdrs))
		if len(got) != len(want) || len(want) != len(base)+len(other) {
			t.Fatalf("%s: drained %d records, want %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d = %v, want %v", label, i, got[i], want[i])
			}
		}
	}
}

func TestMergerCleansTemps(t *testing.T) {
	dir := t.TempDir()
	st := NewFS(dir)
	var spans []Span
	for i := 0; i < 9; i++ { // forces one reduction round at fanIn 2
		recs := sortedRecs(50, int64(i))
		name := fmt.Sprintf("in%d", i)
		writeRun(t, st, name, recs)
		spans = append(spans, Span{Name: name, Lo: 0, Hi: int64(len(recs))})
	}
	if _, err := MergeSpans(st, spans, "out", 2); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if len(e.Name()) > 4 && e.Name()[:4] == "out." && e.Name() != "out.run" {
			t.Fatalf("temp run %q survived MergeSpans", e.Name())
		}
	}
}

// MergePlanStats must predict exactly the reduction NewMerger performs:
// the intermediate-run count and the records flowing through them, for
// single-pass and multi-pass shapes alike.
func TestMergePlanStats(t *testing.T) {
	cases := []struct {
		lens    []int64
		fanIn   int
		runs    int
		records int64
	}{
		{nil, 2, 0, 0},
		{[]int64{10, 20}, 2, 0, 0},                    // fits one pass
		{[]int64{10, 20, 30}, 4, 0, 0},                // fits one pass
		{[]int64{1, 2, 3}, 2, 1, 3},                   // {1,2}→3, then {3,3} final
		{[]int64{1, 1, 1, 1, 1}, 2, 3, 8},             // 5→[2,2,1] (2 temps, 4 recs) →[4,1] (1 temp, 4 recs)
		{[]int64{5, 0, 5, 0, 5}, 2, 1, 10},            // zero-length spans drop out
		{[]int64{1, 1, 1, 1, 1, 1, 1, 1, 1}, 0, 1, 8}, // fanIn<2 takes DefaultFanIn=8
	}
	for _, c := range cases {
		runs, records := MergePlanStats(c.lens, c.fanIn)
		if runs != c.runs || records != c.records {
			t.Errorf("MergePlanStats(%v, %d) = (%d, %d), want (%d, %d)",
				c.lens, c.fanIn, runs, records, c.runs, c.records)
		}
	}

	// Against the real Merger: 9 runs at fan-in 2 — the plan's intermediate
	// count must match the temps NewMerger actually writes.
	st := NewMem()
	var spans []Span
	var lens []int64
	for i := 0; i < 9; i++ {
		recs := sortedRecs(50, int64(100+i))
		name := fmt.Sprintf("pl%d", i)
		writeRun(t, st, name, recs)
		spans = append(spans, Span{Name: name, Lo: 0, Hi: int64(len(recs))})
		lens = append(lens, int64(len(recs)))
	}
	m, err := NewMerger(st, spans, 2, "plan")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	runs, records := MergePlanStats(lens, 2)
	if runs != len(m.temps) {
		t.Errorf("MergePlanStats predicts %d intermediate runs, Merger wrote %d", runs, len(m.temps))
	}
	var tempRecs int64
	for _, tmp := range m.temps {
		n, err := st.Len(tmp)
		if err != nil {
			t.Fatal(err)
		}
		tempRecs += n
	}
	if records != tempRecs {
		t.Errorf("MergePlanStats predicts %d intermediate records, Merger wrote %d", records, tempRecs)
	}
}

func TestMergeDetectsEarlyEOF(t *testing.T) {
	st := NewMem()
	recs := sortedRecs(100, 9)
	writeRun(t, st, "short", recs)
	// Span claims more records than the run holds.
	_, err := MergeSpans(st, []Span{{Name: "short", Lo: 0, Hi: 200}}, "out", 4)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("MergeSpans(over-long span) = %v, want ErrCorrupt", err)
	}
}

// failingStore fails the n-th Append (counted over all its writers).
type failingStore struct {
	Store
	left int
}

var errDiskFull = errors.New("disk full")

func (fs *failingStore) Create(name string) (Writer, error) {
	w, err := fs.Store.Create(name)
	if err != nil {
		return nil, err
	}
	return &failingWriter{Writer: w, st: fs}, nil
}

type failingWriter struct {
	Writer
	st *failingStore
}

func (w *failingWriter) Append(recs []xmath.U128) error {
	if w.st.left--; w.st.left == 0 {
		return errDiskFull
	}
	return w.Writer.Append(recs)
}

// A write that fails part-way leaves no run behind: before, the error paths
// closed the writer, which sealed the records appended so far under a valid
// footer — an intact-looking, shorter run.
func TestFailedWriteLeavesNoRun(t *testing.T) {
	for label, st := range backings(t) {
		t.Run(label, func(t *testing.T) {
			var spans []Span
			for i := 0; i < 3; i++ {
				name := fmt.Sprintf("in%d", i)
				writeRun(t, st, name, sortedRecs(3*streamBuf, int64(i)))
				spans = append(spans, Span{Name: name, Lo: 0, Hi: 3 * streamBuf})
			}
			// One pass: the output run fails on its second batch.
			fs := &failingStore{Store: st, left: 2}
			if _, err := MergeSpans(fs, spans, "out", 8); !errors.Is(err, errDiskFull) {
				t.Fatalf("MergeSpans = %v, want the injected failure", err)
			}
			if _, err := st.Open("out"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Open(out) after a failed merge = %v, want ErrNotFound", err)
			}
			// Two passes at fan-in 2: the intermediate run fails.
			fs = &failingStore{Store: st, left: 3}
			if _, err := MergeSpans(fs, spans, "out", 2); !errors.Is(err, errDiskFull) {
				t.Fatalf("MergeSpans (fan-in 2) = %v, want the injected failure", err)
			}
			for _, name := range []string{"out", "out.tmp.m0"} {
				if _, err := st.Open(name); !errors.Is(err, ErrNotFound) {
					t.Fatalf("Open(%s) after a failed reduction pass = %v, want ErrNotFound", name, err)
				}
			}
			// The inputs are untouched and the merge succeeds once writes do.
			if n, err := MergeSpans(st, spans, "out", 2); err != nil || n != 9*streamBuf {
				t.Fatalf("MergeSpans on the healthy store = %d, %v", n, err)
			}
		})
	}
}

// FuzzFSRunFile hands the run-file reader arbitrary bytes: Open, Len, a
// drain and seeks never panic, every failure is ErrCorrupt (a seek out of
// range aside), and a file the reader accepts end to end re-seals to the
// same bytes — the layout has one representation per record sequence.
func FuzzFSRunFile(f *testing.F) {
	seal := func(recs []xmath.U128) []byte { return sealedBytes(f, recs) }
	f.Add([]byte{}, uint16(0))
	f.Add(seal(nil), uint16(0))
	f.Add(seal(genRecs(3, 1)), uint16(2))
	short := seal(genRecs(9, 3))
	f.Add(short[:len(short)-1], uint16(1))
	f.Add(append([]byte{0}, short...), uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, seek uint16) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "x.run"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		st := NewFS(dir)
		n, lerr := st.Len("x")
		r, err := st.Open("x")
		if (err == nil) != (lerr == nil) {
			t.Fatalf("Len says %v, Open says %v", lerr, err)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || !errors.Is(lerr, ErrCorrupt) {
				t.Fatalf("Open = %v, Len = %v; want ErrCorrupt", err, lerr)
			}
			return
		}
		defer r.Close()
		var recs []xmath.U128
		buf := make([]xmath.U128, 100)
		var derr error
		for derr == nil {
			var k int
			k, derr = r.Read(buf)
			recs = append(recs, buf[:k]...)
		}
		if derr != io.EOF && !errors.Is(derr, ErrCorrupt) {
			t.Fatalf("drain stopped with %v, want io.EOF or ErrCorrupt", derr)
		}
		if derr == io.EOF {
			if int64(len(recs)) != n {
				t.Fatalf("drained %d records, Len says %d", len(recs), n)
			}
			if again := sealedBytes(t, recs); !bytes.Equal(again, raw) {
				t.Fatalf("an accepted %d-byte file re-seals to %d different bytes", len(raw), len(again))
			}
		}
		if err := r.SeekRecord(int64(seek)); err != nil {
			if int64(seek) <= n {
				t.Fatalf("SeekRecord(%d) of %d: %v", seek, n, err)
			}
			return
		}
		k, err := r.Read(buf)
		if err != nil && err != io.EOF && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Read after seek = %v", err)
		}
		if derr == io.EOF && err == nil {
			for i := 0; i < k; i++ {
				if buf[i] != recs[int(seek)+i] {
					t.Fatalf("record %d after SeekRecord(%d): got %v want %v", i, seek, buf[i], recs[int(seek)+i])
				}
			}
		}
	})
}

// sealedBytes seals recs on a fresh store and returns the run file's bytes.
func sealedBytes(tb testing.TB, recs []xmath.U128) []byte {
	tb.Helper()
	dir := tb.TempDir()
	if err := Seal(NewFS(dir), "x", func(w Writer) error { return w.Append(recs) }); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "x.run"))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}
