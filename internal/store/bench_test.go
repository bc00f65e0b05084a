package store

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"dhsort/internal/xmath"
)

// The benchmarks run at the geometry of the wall benchmark's sort-spill
// workload (a 256 KiB budget over 8-byte keys: 32,768-record runs, eight per
// merge), so a store-layer claim can be checked on paired runs of this
// package alone:
//
//	go test ./internal/store -run '^$' -bench . -benchtime 200x -cpu 1
const (
	benchRunRecs = 32768
	benchRuns    = 8
)

// benchRun returns one ascending run, of wide records when wide is set.
func benchRun(seed int64, wide bool) []xmath.U128 {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]xmath.U128, benchRunRecs)
	var acc uint64
	for i := range recs {
		acc += rng.Uint64() >> 20
		recs[i] = xmath.U128{Hi: acc}
		if wide {
			recs[i].Lo = rng.Uint64() | 1
		}
	}
	return recs
}

func benchFSSeal(b *testing.B, wide bool) {
	st := NewFS(b.TempDir())
	recs := benchRun(1, wide)
	b.SetBytes(benchRunRecs * RecordBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeRun(b, st, "run", recs)
	}
}

func BenchmarkFSSeal(b *testing.B)     { benchFSSeal(b, false) }
func BenchmarkFSSealWide(b *testing.B) { benchFSSeal(b, true) }

func benchFSRead(b *testing.B, wide bool) {
	st := NewFS(b.TempDir())
	writeRun(b, st, "run", benchRun(1, wide))
	buf := make([]xmath.U128, streamBuf)
	b.SetBytes(benchRunRecs * RecordBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := st.Open("run")
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for {
			n, err := r.Read(buf)
			total += n
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		r.Close()
		if total != benchRunRecs {
			b.Fatalf("read %d records, want %d", total, benchRunRecs)
		}
	}
}

func BenchmarkFSRead(b *testing.B)     { benchFSRead(b, false) }
func BenchmarkFSReadWide(b *testing.B) { benchFSRead(b, true) }

// BenchmarkFSSeekRead512 is the spilled partition's block probe: a seek and
// one 512-record read.
func BenchmarkFSSeekRead512(b *testing.B) {
	st := NewFS(b.TempDir())
	recs := benchRun(1, false)
	writeRun(b, st, "run", recs)
	r, err := st.Open("run")
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	rng := rand.New(rand.NewSource(2))
	block := make([]xmath.U128, 512)
	b.SetBytes(int64(len(block)) * RecordBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := rng.Int63n(benchRunRecs - int64(len(block)))
		if err := r.SeekRecord(at); err != nil {
			b.Fatal(err)
		}
		if n, err := r.Read(block); err != nil || n != len(block) || block[0] != recs[at] {
			b.Fatalf("block at %d: n=%d err=%v first=%v want %v", at, n, err, block[0], recs[at])
		}
	}
}

func benchMergeK8(b *testing.B, st Store, wide bool) {
	spans := make([]Span, benchRuns)
	for i := range spans {
		spans[i] = Span{Name: fmt.Sprintf("in%d", i), Lo: 0, Hi: benchRunRecs}
		writeRun(b, st, spans[i].Name, benchRun(int64(i), wide))
	}
	b.SetBytes(benchRuns * benchRunRecs * RecordBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := MergeSpans(st, spans, "merged", benchRuns)
		if err != nil || n != benchRuns*benchRunRecs {
			b.Fatalf("MergeSpans = %d, %v", n, err)
		}
	}
}

func BenchmarkMergeK8FS(b *testing.B)      { benchMergeK8(b, NewFS(b.TempDir()), false) }
func BenchmarkMergeK8Mem(b *testing.B)     { benchMergeK8(b, NewMem(), false) }
func BenchmarkMergeK8FSWide(b *testing.B)  { benchMergeK8(b, NewFS(b.TempDir()), true) }
func BenchmarkMergeK8MemWide(b *testing.B) { benchMergeK8(b, NewMem(), true) }
