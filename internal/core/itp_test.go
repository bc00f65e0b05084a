package core

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/sortutil"
)

// checkRefinement runs FindSplitters on locals (one unsorted partition a
// rank) at ε = 0 with the ranks' capacities as targets and checks what the
// ITP placement must keep: every splitter's global counts bracket its
// target, L <= T <= U; every rank returns the same splitters; and the
// rounds stay within the key width (bits significant bits) + 1.
func checkRefinement[K any](t *testing.T, locals [][]K, ops keys.Ops[K], bits int) {
	t.Helper()
	p := len(locals)
	for _, l := range locals {
		sortutil.Sort(l, ops.Less)
	}
	targets := make([]int64, p-1)
	var acc int64
	for i := range targets {
		acc += int64(len(locals[i]))
		targets[i] = acc
	}
	w, err := comm.NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	splitters := make([][]K, p)
	rounds := make([]int, p)
	var mu sync.Mutex
	err = w.Run(func(c *comm.Comm) error {
		sp, n := FindSplitters(c, locals[c.Rank()], ops, targets, 0, Config{Threads: 1})
		mu.Lock()
		splitters[c.Rank()], rounds[c.Rank()] = sp, n
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < p; r++ {
		if rounds[r] != rounds[0] {
			t.Fatalf("rank %d took %d rounds, rank 0 %d", r, rounds[r], rounds[0])
		}
		for i, s := range splitters[r] {
			if ops.ToBits(s) != ops.ToBits(splitters[0][i]) {
				t.Fatalf("rank %d splitter %d = %v, rank 0 %v", r, i, s, splitters[0][i])
			}
		}
	}
	if rounds[0] > bits+1 {
		t.Errorf("%d rounds, above the key width %d + 1", rounds[0], bits)
	}
	for i, s := range splitters[0] {
		var L, U int64
		for _, l := range locals {
			L += int64(sortutil.LowerBound(l, s, ops.Less))
			U += int64(sortutil.UpperBound(l, s, ops.Less))
		}
		if T := targets[i]; L > T || T > U {
			t.Errorf("splitter %d = %v: L=%d T=%d U=%d do not bracket the target", i, s, L, T, U)
		}
	}
}

// FuzzRefineSplitters holds the refinement to its contract on arbitrary
// per-rank inputs: raw is read as 8-byte keys, pRaw picks P in 1-16, shape
// deals them out (see dealKeys: round-robin, rank-partitioned, one rank
// holding all, unequal capacities, all equal), and kind picks the key type:
// uint64, float64 with ±0 and ±Inf mixed in, int32 (ITP probes on their
// images and values), or Triple (no 64-bit image: the midpoint).
func FuzzRefineSplitters(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(4), uint8(0), uint8(0))
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef"), uint8(7), uint8(1), uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x80, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(3), uint8(3), uint8(1))
	f.Add([]byte("zyxwvutsrqponmlkjihgfedcbaZYXWVUTSRQPONMLKJIHGFEDCBA"), uint8(15), uint8(2), uint8(2))
	f.Add([]byte("mississippi mississippi mississippi"), uint8(5), uint8(4), uint8(3))
	f.Add([]byte("aaaaaaaabbbbbbbbaaaaaaaabbbbbbbbccccccccaaaaaaaa"), uint8(2), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, pRaw, shape, kind uint8) {
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		ks := make([]uint64, len(raw)/8)
		for i := range ks {
			ks[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		locals := dealKeys(ks, 1+int(pRaw%16), shape)
		switch kind % 4 {
		case 0:
			checkRefinement(t, locals, keys.Uint64{}, 64)
		case 1:
			checkRefinement(t, convert(locals, fuzzFloat), keys.Float64{}, 64)
		case 2:
			checkRefinement(t, convert(locals, func(k uint64) int32 { return int32(k) }), keys.Int32{}, 32)
		case 3:
			// Few distinct keys: the suffix tells the duplicates apart.
			few := convert(locals, func(k uint64) uint64 { return k >> 61 })
			triples := make([][]keys.Triple[uint64], len(few))
			for r, l := range few {
				triples[r] = keys.MakeUnique(l, r)
			}
			checkRefinement(t, triples, keys.NewTripleOps[uint64](keys.Uint64{}), 128)
		}
	})
}

// fuzzFloat maps a fuzzed word to a float64 key: ±0 and ±Inf by its low
// three bits, else its bits as a float (NaNs folded onto finite values).
func fuzzFloat(k uint64) float64 {
	switch k & 7 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	}
	if f := math.Float64frombits(k); !math.IsNaN(f) {
		return f
	}
	return float64(int64(k) >> 11)
}

// convert maps every rank's keys through conv.
func convert[K any](locals [][]uint64, conv func(uint64) K) [][]K {
	out := make([][]K, len(locals))
	for r, l := range locals {
		out[r] = make([]K, len(l))
		for i, k := range l {
			out[r][i] = conv(k)
		}
	}
	return out
}
