package api

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"testing"
)

// BenchmarkResultFormat formats /result bodies into io.Discard a block at a
// time: serve-session's solo job (65,536 keys below 1e9) and an inline job
// of 2,048 full-range keys.
func BenchmarkResultFormat(b *testing.B) {
	for _, c := range []struct {
		n    int
		span uint64
	}{{65536, 1e9}, {2048, 0}} {
		rng := rand.New(rand.NewSource(5))
		ks := make([]uint64, c.n)
		var bytes int64
		for i := range ks {
			ks[i] = rng.Uint64()
			if c.span > 0 {
				ks[i] %= c.span
			}
			bytes += int64(len(strconv.FormatUint(ks[i], 10)) + 1)
		}
		name := "full"
		if c.span > 0 {
			name = fmt.Sprintf("span%.0e", float64(c.span))
		}
		b.Run(fmt.Sprintf("%d-%s", c.n, name), func(b *testing.B) {
			b.SetBytes(bytes)
			b.ReportAllocs()
			for range b.N {
				if err := writeKeys(io.Discard, ks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
