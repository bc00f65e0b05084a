// Package store is the out-of-core storage plane: named, ordered runs of
// fixed-width key records behind a small Store interface with in-memory and
// filesystem implementations — the DistribArray shape (a named array of
// ordered partitions with interchangeable memory/filesystem backings)
// adapted to the sort's needs.
//
// A run is an immutable, ordered sequence of 16-byte records: the
// order-preserving 128-bit key images of keys.Ops.ToBits.  Because the
// embedding is an order isomorphism, the store can search and merge runs
// without knowing the key type — two records compare as unsigned 128-bit
// integers, and equal images decode to indistinguishable keys, which is what
// makes the external merge bit-identical to the in-memory one.
//
// Runs are write-once: Create a Writer, Append records in order, Close to
// seal (Seal does the three and removes the run when any of them fails).  The
// filesystem backing writes the DHS2 layout — the records, little-endian, in
// 64 KiB chunks of one write call each, then a 24-byte footer: magic "DHS2",
// record width, record count, and a 64-bit digest of every data byte (CRC-32C
// in the low half, CRC-32/IEEE in the high half, both folded a chunk at a
// time on the CPU's CRC instructions).  Truncation is detected when a run is
// opened, any flipped data bit when a sequential read drains it; a DHS1 file
// (FNV-1a digest) is rejected at Open.  An open Writer or Reader holds one
// chunk.  The memory backing holds the same runs in a map, so the two
// backings are interchangeable — the chaos oracle's storage axis asserts
// bit-identical sort output and virtual makespan across them.
package store

import (
	"errors"
	"fmt"
	"strings"

	"dhsort/internal/xmath"
)

// RecordBytes is the wire width of one run record: a 128-bit key image.
const RecordBytes = 16

// ErrCorrupt marks a run whose stored bytes cannot be trusted: a size that
// disagrees with the footer's record count (truncation), a bad magic (any
// other layout version included) or record width, or a data digest that
// disagrees with the footer's at the end of a sequential read.
var ErrCorrupt = errors.New("store: run corrupt")

// ErrNotFound marks a run name with no sealed run behind it.
var ErrNotFound = errors.New("store: run not found")

// Store is a flat namespace of sealed runs.  Implementations must be safe
// for concurrent use by multiple ranks as long as distinct ranks use
// distinct run names (the sort's naming convention keys every run by world
// rank); concurrent readers of one sealed run are always safe.
type Store interface {
	// Create opens a new run for writing, truncating any sealed run of the
	// same name.  The run is invisible to Open/Len until the Writer is
	// closed.
	Create(name string) (Writer, error)
	// Open returns a sequential reader positioned at record 0.  Opening
	// validates the run's integrity envelope (footer, truncation).
	Open(name string) (Reader, error)
	// Len returns the record count of a sealed run.
	Len(name string) (int64, error)
	// Remove deletes a sealed run; removing a missing run is not an error.
	// A Reader opened before the Remove is unaffected: it still delivers the
	// whole run, seeks included, and still audits the digest of a full
	// sequential read — the memory backing's reader holds the records, the
	// filesystem's holds the open file (POSIX unlink semantics).  Only Open
	// and Len see the run gone.
	Remove(name string) error
}

// Writer appends records to an open run.  Append keeps input order; Close
// seals the run (filesystem backing: writes the last partial chunk and the
// checksummed footer).
type Writer interface {
	Append(recs []xmath.U128) error
	Close() error
}

// Reader reads records from a sealed run.  Read fills dst and returns the
// count read; it returns io.EOF once the run is drained.  A reader that has
// consumed the whole run strictly sequentially from record 0 verifies the
// data digest as the last record is delivered and surfaces ErrCorrupt on a
// mismatch; SeekRecord repositions the reader and (filesystem backing)
// waives the digest for that pass, since a ranged read cannot re-derive the
// whole-run value — and makes the next Read fetch exactly the records it
// asks for, so a block probe moves a block, not a chunk.  A reader outlives
// the removal of its run (see Store.Remove).
type Reader interface {
	Read(dst []xmath.U128) (int, error)
	SeekRecord(rec int64) error
	Close() error
}

// checkName rejects run names that could escape a filesystem root.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("store: empty run name")
	}
	if strings.HasPrefix(name, "/") || strings.Contains(name, "..") {
		return fmt.Errorf("store: invalid run name %q", name)
	}
	return nil
}
