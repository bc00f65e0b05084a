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

// Run file layout (DHS3): records [0, narrow) as their 8-byte high word,
// records [narrow, count) as RecordBytes (Lo then Hi), all little-endian,
// followed by a fixed footer — magic, record width, narrow, count and a
// 64-bit digest of every data byte.  narrow is the index of the first record
// with a nonzero low word (count if there is none): a writer stays narrow
// until that record arrives and never switches back, so runs of 64-bit key
// images cost 8 bytes a record and every record sequence has exactly one
// file.  The footer makes truncation detectable at Open (file size must
// equal footerBytes + 8·narrow + 16·(count − narrow)) and bit flips
// detectable at the end of a sequential read.
const (
	fsMagic     = 0x44485333 // "DHS3"; DHS1 (FNV-1a digest) and DHS2 (all records wide) files are rejected
	footerBytes = 32
	narrowBytes = 8
)

// chunkBytes is the I/O unit and the whole resident footprint of an open
// Writer or Reader: records are encoded into, and decoded out of, one chunk,
// and every chunk is one write or read call.  Large enough that run I/O is
// sequential bulk transfer, small enough to stay within any sane budget.
const chunkBytes = 64 << 10

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
	return &fsWriter{f: file, buf: make([]byte, 0, chunkBytes+footerBytes), wide: -1}, nil
}

// Open validates the run's integrity envelope and returns a sequential
// reader at record 0.
func (f *FS) Open(name string) (Reader, error) {
	file, foot, err := f.open(name)
	if err != nil {
		return nil, err
	}
	return &fsReader{f: file, footer: foot, audit: true}, nil
}

// Len returns the record count of a sealed run, validating the envelope.
func (f *FS) Len(name string) (int64, error) {
	file, foot, err := f.open(name)
	if err != nil {
		return 0, err
	}
	file.Close()
	return foot.count, nil
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

// footer is what a run file's footer says about its data.
type footer struct {
	narrow, count int64  // records [0, narrow) are 8 bytes, [narrow, count) 16
	sum           uint64 // the digest of every data byte
}

// offset returns the byte offset of record rec.
func (ft footer) offset(rec int64) int64 {
	return narrowBytes*min(rec, ft.narrow) + RecordBytes*max(rec-ft.narrow, 0)
}

// open opens the run file and audits the footer envelope: magic, record
// width, the size/count agreement that catches truncated runs, and (there
// being no read to audit it later) the digest of an empty run.
func (f *FS) open(name string) (*os.File, footer, error) {
	if err := checkName(name); err != nil {
		return nil, footer{}, err
	}
	file, err := os.Open(f.path(name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, footer{}, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return nil, footer{}, fmt.Errorf("store: %w", err)
	}
	foot, err := readFooter(file, name)
	if err != nil {
		file.Close()
		return nil, footer{}, err
	}
	return file, foot, nil
}

func readFooter(file *os.File, name string) (footer, error) {
	st, err := file.Stat()
	if err != nil {
		return footer{}, fmt.Errorf("store: %w", err)
	}
	if st.Size() < footerBytes {
		return footer{}, fmt.Errorf("%w: %q is %d bytes, shorter than the footer", ErrCorrupt, name, st.Size())
	}
	var foot [footerBytes]byte
	if _, err := file.ReadAt(foot[:], st.Size()-footerBytes); err != nil {
		return footer{}, fmt.Errorf("store: %w", err)
	}
	magic := binary.LittleEndian.Uint32(foot[0:4])
	width := binary.LittleEndian.Uint32(foot[4:8])
	narrow := binary.LittleEndian.Uint64(foot[8:16])
	count := binary.LittleEndian.Uint64(foot[16:24])
	sum := binary.LittleEndian.Uint64(foot[24:32])
	if magic != fsMagic || width != RecordBytes {
		return footer{}, fmt.Errorf("%w: %q has magic %#x width %d", ErrCorrupt, name, magic, width)
	}
	// data = 8·narrow + 16·(count − narrow), checked without overflow.
	data := uint64(st.Size() - footerBytes)
	if narrow > count || narrow > data/narrowBytes ||
		(data-narrowBytes*narrow)%RecordBytes != 0 || count-narrow != (data-narrowBytes*narrow)/RecordBytes {
		return footer{}, fmt.Errorf("%w: %q holds %d bytes for %d records, %d narrow (truncated?)", ErrCorrupt, name, st.Size(), count, narrow)
	}
	if count == 0 && sum != 0 {
		return footer{}, fmt.Errorf("%w: %q is empty but its footer carries digest %#x", ErrCorrupt, name, sum)
	}
	return footer{narrow: int64(narrow), count: int64(count), sum: sum}, nil
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
// chunk to the file in a single Write.  It writes records narrow until the
// first one with a nonzero low word, and wide from there on.
type fsWriter struct {
	f      *os.File
	buf    []byte // pending encoded records; capacity is one chunk plus the footer
	count  int64
	wide   int64 // the index of the first wide record, -1 while the run is narrow
	sum    uint64
	closed bool
}

func (w *fsWriter) Append(recs []xmath.U128) error {
	if w.closed {
		return fmt.Errorf("store: append to closed run")
	}
	for len(recs) > 0 {
		at := len(w.buf)
		k := min((chunkBytes-at)/w.width(), len(recs))
		if w.wide < 0 {
			w.buf = w.buf[:at+k*narrowBytes]
			for i, r := range recs[:k] {
				if r.Lo != 0 {
					w.wide, k = w.count+int64(i), i
					break
				}
				binary.LittleEndian.PutUint64(w.buf[at+i*narrowBytes:], r.Hi)
			}
			w.buf = w.buf[:at+k*narrowBytes]
		} else {
			w.buf = w.buf[:at+k*RecordBytes]
			for i, r := range recs[:k] {
				b := w.buf[at+i*RecordBytes:][:RecordBytes]
				binary.LittleEndian.PutUint64(b[0:8], r.Lo)
				binary.LittleEndian.PutUint64(b[8:16], r.Hi)
			}
		}
		recs, w.count = recs[k:], w.count+int64(k)
		if len(w.buf)+w.width() > chunkBytes { // the chunk holds no further record
			w.sum = foldSum(w.sum, w.buf)
			if err := w.write(); err != nil {
				return err
			}
		}
	}
	return nil
}

// width is the byte width of the next record the writer encodes.
func (w *fsWriter) width() int {
	if w.wide < 0 {
		return narrowBytes
	}
	return RecordBytes
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
	narrow := w.wide
	if narrow < 0 {
		narrow = w.count
	}
	w.sum = foldSum(w.sum, w.buf)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, fsMagic)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, RecordBytes)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(narrow))
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
	f *os.File
	footer
	pos int64 // next record to deliver

	buf  []byte // the chunk; buf[r:] are fetched, undelivered record bytes
	r    int
	next int64 // record index of the next fill

	// digest accumulates while the read stays strictly sequential from
	// record 0; it is audited against the footer's sum as the last record is
	// delivered.  SeekRecord waives the audit for that pass, and makes the
	// next fill fetch exactly what its Read asks for.
	digest uint64
	audit  bool
	exact  bool
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
		b, out := r.buf[r.r:], dst[done:]
		var k int
		if r.pos < r.narrow {
			k = min(len(b)/narrowBytes, len(out), int(r.narrow-r.pos))
			for i := range out[:k] {
				out[i] = xmath.U128{Hi: binary.LittleEndian.Uint64(b[i*narrowBytes:])}
			}
			r.r += k * narrowBytes
		} else {
			k = min(len(b)/RecordBytes, len(out))
			for i := range out[:k] {
				rec := b[i*RecordBytes:][:RecordBytes]
				out[i] = xmath.U128{
					Lo: binary.LittleEndian.Uint64(rec[0:8]),
					Hi: binary.LittleEndian.Uint64(rec[8:16]),
				}
			}
			if r.pos == r.narrow && out[0].Lo == 0 {
				return done, fmt.Errorf("%w: record %d opens the wide records with a zero low word", ErrCorrupt, r.pos)
			}
			r.r += k * RecordBytes
		}
		r.pos += int64(k)
		done += k
	}
	if r.pos == r.count && r.audit && r.digest != r.sum {
		return len(dst), fmt.Errorf("%w: data checksum %#x, footer says %#x", ErrCorrupt, r.digest, r.sum)
	}
	return len(dst), nil
}

// fill fetches the next chunk of the run — or, right after a seek, just the
// want records the caller is waiting for, so a block probe costs a block.
func (r *fsReader) fill(want int) error {
	// The records from r.next that fit in a chunk: the narrow ones first.
	n := min(r.narrow-r.next, chunkBytes/narrowBytes)
	if n <= 0 {
		n = min(r.count-r.next, chunkBytes/RecordBytes)
	} else if r.next+n == r.narrow {
		n += min(r.count-r.narrow, (chunkBytes-n*narrowBytes)/RecordBytes)
	}
	if r.exact {
		n, r.exact = min(n, int64(want)), false
	}
	if r.buf == nil {
		r.buf = make([]byte, min(chunkBytes, r.offset(r.count)))
	}
	at := r.offset(r.next)
	r.buf, r.r = r.buf[:r.offset(r.next+n)-at], 0
	if _, err := r.f.ReadAt(r.buf, at); err != nil {
		r.buf = r.buf[:0]
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	r.next += n
	if r.audit {
		r.digest = foldSum(r.digest, r.buf)
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
