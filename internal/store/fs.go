package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"dhsort/internal/xmath"
)

// FS is the filesystem Store: one file per run under a root directory, read
// and written a 64 KiB chunk at a time, with a checksummed footer.  An FS
// value is just the root path — every rank of a collective can hold its own
// FS over the same directory and observe the same runs, which is what makes
// checkpoint shards durable across rank deaths.
type FS struct {
	root string
}

// NewFS returns a store rooted at dir.  The directory is created lazily on
// the first Create.
func NewFS(dir string) *FS { return &FS{root: dir} }

// Root returns the scratch directory the store writes under.
func (f *FS) Root() string { return f.root }

// Run file layout (DHS2): count records of RecordBytes (Lo then Hi,
// little-endian) followed by a fixed footer — magic, record width, count and
// a 64-bit digest of every data byte.  The footer makes truncation detectable
// at Open (file size must equal footerBytes + count*RecordBytes) and bit
// flips detectable at the end of a sequential read.
const (
	fsMagic     = 0x44485332 // "DHS2"; DHS1 files (FNV-1a digest) are rejected
	footerBytes = 24
)

// chunkBytes is the I/O unit and the whole resident footprint of an open
// Writer or Reader: records are encoded into, and decoded out of, one chunk,
// and every chunk is one write or read call.  Large enough that run I/O is
// sequential bulk transfer, small enough to stay within any sane budget.
const (
	chunkBytes = 64 << 10
	chunkRecs  = chunkBytes / RecordBytes
)

func (f *FS) path(name string) string {
	return filepath.Join(f.root, filepath.FromSlash(name)+".run")
}

// Create opens a new run file, replacing any previous run of that name.  The
// old file is unlinked, not truncated: the new run gets a fresh inode, so a
// reader still holding the old run keeps a consistent file, and the
// filesystem does not treat the rewrite as a replace-via-truncate that it
// must flush when the writer closes (ext4 does; 3× the seal time here).
func (f *FS) Create(name string) (Writer, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	p := f.path(name)
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	file, err := os.Create(p)
	if os.IsNotExist(err) { // first run under this directory
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		file, err = os.Create(p)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &fsWriter{f: file, buf: make([]byte, 0, chunkBytes+footerBytes)}, nil
}

// Open validates the run's integrity envelope and returns a sequential
// reader at record 0.
func (f *FS) Open(name string) (Reader, error) {
	file, count, want, err := f.open(name)
	if err != nil {
		return nil, err
	}
	return &fsReader{f: file, count: count, want: want, audit: true}, nil
}

// Len returns the record count of a sealed run, validating the envelope.
func (f *FS) Len(name string) (int64, error) {
	file, count, _, err := f.open(name)
	if err != nil {
		return 0, err
	}
	file.Close()
	return count, nil
}

// Remove deletes a run file.
func (f *FS) Remove(name string) error {
	if err := checkName(name); err != nil {
		return err
	}
	err := os.Remove(f.path(name))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// open opens the run file and audits the footer envelope: magic, record
// width, the size/count agreement that catches truncated runs, and (there
// being no read to audit it later) the digest of an empty run.  It returns
// the record count and the footer's digest.
func (f *FS) open(name string) (*os.File, int64, uint64, error) {
	if err := checkName(name); err != nil {
		return nil, 0, 0, err
	}
	file, err := os.Open(f.path(name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, 0, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return nil, 0, 0, fmt.Errorf("store: %w", err)
	}
	count, sum, err := readFooter(file, name)
	if err != nil {
		file.Close()
		return nil, 0, 0, err
	}
	return file, count, sum, nil
}

func readFooter(file *os.File, name string) (count int64, sum uint64, err error) {
	st, err := file.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	if st.Size() < footerBytes {
		return 0, 0, fmt.Errorf("%w: %q is %d bytes, shorter than the footer", ErrCorrupt, name, st.Size())
	}
	var foot [footerBytes]byte
	if _, err := file.ReadAt(foot[:], st.Size()-footerBytes); err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	magic := binary.LittleEndian.Uint32(foot[0:4])
	width := binary.LittleEndian.Uint32(foot[4:8])
	count = int64(binary.LittleEndian.Uint64(foot[8:16]))
	sum = binary.LittleEndian.Uint64(foot[16:24])
	if magic != fsMagic || width != RecordBytes {
		return 0, 0, fmt.Errorf("%w: %q has magic %#x width %d", ErrCorrupt, name, magic, width)
	}
	if data := st.Size() - footerBytes; data%RecordBytes != 0 || count != data/RecordBytes {
		return 0, 0, fmt.Errorf("%w: %q holds %d bytes for %d records (truncated?)", ErrCorrupt, name, st.Size(), count)
	}
	if count == 0 && sum != 0 {
		return 0, 0, fmt.Errorf("%w: %q is empty but its footer carries digest %#x", ErrCorrupt, name, sum)
	}
	return count, sum, nil
}

// foldSum extends the run digest over one more chunk of data bytes: CRC-32C
// (Castagnoli) in the low half, CRC-32/IEEE in the high half.  Both run on
// the CPU's CRC / carry-less-multiply instructions at many GB/s, either one
// alone detects every single-bit flip and every burst of up to 32 bits, and
// the value is a pure function of the bytes (comparable across processes).
func foldSum(sum uint64, b []byte) uint64 {
	lo := crc32.Update(uint32(sum), castagnoli, b)
	hi := crc32.Update(uint32(sum>>32), crc32.IEEETable, b)
	return uint64(hi)<<32 | uint64(lo)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fsWriter encodes appended records into its one chunk and hands every full
// chunk to the file in a single Write.
type fsWriter struct {
	f      *os.File
	buf    []byte // pending encoded records; capacity is one chunk plus the footer
	count  int64
	sum    uint64
	closed bool
}

func (w *fsWriter) Append(recs []xmath.U128) error {
	if w.closed {
		return fmt.Errorf("store: append to closed run")
	}
	w.count += int64(len(recs))
	for len(recs) > 0 {
		at := len(w.buf)
		k := min((chunkBytes-at)/RecordBytes, len(recs))
		w.buf = w.buf[:at+k*RecordBytes]
		for i, r := range recs[:k] {
			b := w.buf[at+i*RecordBytes:][:RecordBytes]
			binary.LittleEndian.PutUint64(b[0:8], r.Lo)
			binary.LittleEndian.PutUint64(b[8:16], r.Hi)
		}
		recs = recs[k:]
		if len(w.buf) == chunkBytes {
			w.sum = foldSum(w.sum, w.buf)
			if err := w.write(); err != nil {
				return err
			}
		}
	}
	return nil
}

// write hands the pending bytes to the file in one call.
func (w *fsWriter) write() error {
	_, err := w.f.Write(w.buf)
	w.buf = w.buf[:0]
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Close seals the run: the last partial chunk and the footer go out in one
// write.
func (w *fsWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.sum = foldSum(w.sum, w.buf)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, fsMagic)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, RecordBytes)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(w.count))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, w.sum)
	if err := w.write(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// fsReader decodes records straight out of one chunk filled by a single
// positioned read.
type fsReader struct {
	f     *os.File
	count int64
	pos   int64 // next record to deliver

	buf  []byte // the chunk; buf[r:] are fetched, undelivered record bytes
	r    int
	next int64 // record index of the next fill

	// sum accumulates the digest while the read stays strictly sequential
	// from record 0; it is audited against the footer's (want) as the last
	// record is delivered.  SeekRecord waives the audit for that pass, and
	// makes the next fill fetch exactly what its Read asks for.
	sum, want uint64
	audit     bool
	exact     bool
}

func (r *fsReader) Read(dst []xmath.U128) (int, error) {
	if r.pos >= r.count {
		return 0, io.EOF
	}
	dst = dst[:min(int64(len(dst)), r.count-r.pos)]
	for done := 0; done < len(dst); {
		if r.r == len(r.buf) {
			if err := r.fill(len(dst) - done); err != nil {
				return done, err
			}
		}
		b := r.buf[r.r:]
		k := min(len(b)/RecordBytes, len(dst)-done)
		for i := range dst[done : done+k] {
			rec := b[i*RecordBytes:][:RecordBytes]
			dst[done+i] = xmath.U128{
				Lo: binary.LittleEndian.Uint64(rec[0:8]),
				Hi: binary.LittleEndian.Uint64(rec[8:16]),
			}
		}
		r.r += k * RecordBytes
		r.pos += int64(k)
		done += k
	}
	if r.pos == r.count && r.audit && r.sum != r.want {
		return len(dst), fmt.Errorf("%w: data checksum %#x, footer says %#x", ErrCorrupt, r.sum, r.want)
	}
	return len(dst), nil
}

// fill fetches the next chunk of the run — or, right after a seek, just the
// want records the caller is waiting for, so a block probe costs a block.
func (r *fsReader) fill(want int) error {
	n := min(chunkRecs, r.count-r.next)
	if r.exact {
		n, r.exact = min(n, int64(want)), false
	}
	if r.buf == nil {
		r.buf = make([]byte, min(chunkBytes, r.count*RecordBytes))
	}
	r.buf, r.r = r.buf[:n*RecordBytes], 0
	if _, err := r.f.ReadAt(r.buf, r.next*RecordBytes); err != nil {
		r.buf = r.buf[:0]
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	r.next += n
	if r.audit {
		r.sum = foldSum(r.sum, r.buf)
	}
	return nil
}

func (r *fsReader) SeekRecord(rec int64) error {
	if rec < 0 || rec > r.count {
		return fmt.Errorf("store: seek to record %d of %d", rec, r.count)
	}
	if rec == r.pos {
		return nil
	}
	r.pos, r.next = rec, rec
	r.buf, r.r = r.buf[:0], 0
	r.audit, r.exact = false, true
	return nil
}

func (r *fsReader) Close() error { return r.f.Close() }
