package core

import (
	"fmt"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/prng"
	"dhsort/internal/sortutil"
)

// globalCounts returns the global lower and upper rank of v over the ranks'
// sorted partitions: L keys order strictly before v, U at or before it.
func globalCounts[K any](locals [][]K, ops keys.Ops[K], v K) (L, U int64) {
	for _, l := range locals {
		L += int64(sortutil.LowerBound(l, v, ops.Less))
		U += int64(sortutil.UpperBound(l, v, ops.Less))
	}
	return L, U
}

// checkBracketLemma holds the bracket lemma against arbitrary sorted
// partitions: for every target T in (0, N) the seeded bracket [a, A]
// satisfies a <= A and L(a) <= T <= U(A).  It returns N.
func checkBracketLemma[K any](t *testing.T, locals [][]K, ops keys.Ops[K], targets []int64) int64 {
	t.Helper()
	var total int64
	for _, l := range locals {
		total += int64(len(l))
	}
	mm := seedBrackets(locals, ops, targets)
	for i, T := range targets {
		b := mm[i+1]
		if T <= 0 || T >= total {
			if b.Has {
				t.Errorf("target %d of %d keys is degenerate but has a bracket", T, total)
			}
			continue
		}
		if !b.Has {
			t.Fatalf("target %d of %d keys has no bracket", T, total)
		}
		if b.Max.Less(b.Min) {
			t.Errorf("target %d: bracket [%v, %v] is inverted", T, b.Min, b.Max)
		}
		if L, _ := globalCounts(locals, ops, ops.FromBits(b.Min)); L > T {
			t.Errorf("target %d: %d keys order before the bracket's bottom", T, L)
		}
		if _, U := globalCounts(locals, ops, ops.FromBits(b.Max)); U < T {
			t.Errorf("target %d: only %d keys order at or before the bracket's top", T, U)
		}
	}
	return total
}

// checkSeedBrackets holds the lemma and what rests on it: FindSplitters,
// which starts from the brackets and has no other way out, returns splitters
// whose counts meet L - tol <= T <= U + tol.
func checkSeedBrackets[K any](t *testing.T, locals [][]K, ops keys.Ops[K], targets []int64, tol int64) {
	t.Helper()
	total := checkBracketLemma(t, locals, ops, targets)
	w, err := comm.NewWorld(len(locals), nil)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *comm.Comm) error {
		sp, _ := FindSplitters(c, locals[c.Rank()], ops, targets, tol, Config{})
		if c.Rank() != 0 || total == 0 {
			return nil
		}
		for i, T := range targets {
			L, U := globalCounts(locals, ops, sp[i])
			if T = min(max(T, 0), total); !(L-tol <= T && T <= U+tol) {
				t.Errorf("splitter %d: L=%d T=%d U=%d (tol %d) do not bracket the target", i, L, T, U, tol)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// dealKeys spreads ks over p ranks in one of the shapes the lemma has to
// survive and returns the ranks' sorted partitions.
func dealKeys(ks []uint64, p int, shape uint8) [][]uint64 {
	locals := make([][]uint64, p)
	switch shape % 5 {
	case 0: // round-robin: every rank sees the whole distribution
		for i, k := range ks {
			locals[i%p] = append(locals[i%p], k)
		}
	case 1: // rank-partitioned: rank r holds the r-th slice of the sorted keys
		sorted := append([]uint64(nil), ks...)
		sortutil.Sort(sorted, keys.Uint64{}.Less)
		for r := range locals {
			locals[r] = sorted[len(sorted)*r/p : len(sorted)*(r+1)/p]
		}
	case 2: // one rank holds everything, the others are empty
		locals[p-1] = append([]uint64(nil), ks...)
	case 3: // unequal capacities: rank 0 holds nothing, the last rank two shares
		for i, k := range ks {
			r := i % p
			if r == 0 {
				r = p - 1
			}
			locals[r] = append(locals[r], k)
		}
	case 4: // all keys equal
		for i := range ks {
			locals[i%p] = append(locals[i%p], 7)
		}
	}
	for _, l := range locals {
		sortutil.Sort(l, keys.Uint64{}.Less)
	}
	return locals
}

// uniqueLocals is locals under the uniqueness transformation: every key
// distinct, the low 64 embedding bits in use.
func uniqueLocals(locals [][]uint64) ([][]keys.Triple[uint64], keys.Ops[keys.Triple[uint64]]) {
	tops := keys.NewTripleOps[uint64](keys.Uint64{})
	triples := make([][]keys.Triple[uint64], len(locals))
	for r, l := range locals {
		triples[r] = keys.MakeUnique(l, r)
		sortutil.Sort(triples[r], tops.Less)
	}
	return triples, tops
}

// seedTargets are the targets every shape is checked against: the two ends
// of the open interval, one inside, and the two degenerate neighbours.
func seedTargets(total, inner int64) []int64 {
	if total < 2 {
		return []int64{0, total}
	}
	return []int64{0, 1, 1 + inner%(total-1), total - 1, total}
}

func TestSeedBracketHoldsSplitter(t *testing.T) {
	src := prng.NewSplitMix64(20261003)
	for trial := 0; trial < 60; trial++ {
		p := 1 + int(prng.Uint64n(src, 9))
		n := int(prng.Uint64n(src, 400))
		span := []uint64{3, 50, 1 << 20, 0}[prng.Uint64n(src, 4)]
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = src.Uint64()
			if span > 0 {
				ks[i] %= span
			}
		}
		shape := uint8(prng.Uint64n(src, 5))
		locals := dealKeys(ks, p, shape)
		targets := seedTargets(int64(n), int64(prng.Uint64n(src, 1<<30)))
		t.Run(fmt.Sprintf("p%d/n%d/shape%d", p, n, shape), func(t *testing.T) {
			checkSeedBrackets(t, locals, keys.Uint64{}, targets, 0)
			checkSeedBrackets(t, locals, keys.Uint64{}, targets, int64(trial%3))
			triples, tops := uniqueLocals(locals)
			checkSeedBrackets(t, triples, tops, targets, 0)
		})
	}

	// An embedding that is monotone but not exact: strings that differ only
	// beyond their 16 embedded bytes share an image, and the bracket's top
	// has to reach past all of them.
	strs := make([][]string, 4)
	for r := range strs {
		for i := 0; i < 50; i++ {
			strs[r] = append(strs[r], fmt.Sprintf("shared-prefix-0123-%03d", (i*4+r)*7%200), fmt.Sprintf("k%04d", i*4+r))
		}
		sortutil.Sort(strs[r], keys.String{}.Less)
	}
	checkBracketLemma(t, strs, keys.String{}, []int64{1, 57, 200, 399})
}

// FuzzSeedBracketHoldsSplitter: the bracket lemma is what lets refinement
// start inside [a, A] with no fallback, so it is held against arbitrary
// per-rank sorted inputs.  The bytes are the keys (one byte each: heavy
// duplicates; shape 4 makes them all equal), p and shape deal them out
// (empty ranks, unequal capacities, rank-partitioned), inner picks the
// target between 1 and N-1, which are always checked as well; unique runs
// the same input as Triple keys under the uniqueness transformation.
func FuzzSeedBracketHoldsSplitter(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(4), uint8(0), uint16(9), false)
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab"), uint8(7), uint8(1), uint16(40), false)
	f.Add([]byte("zyxwvutsrqponmlkjihgfedcba"), uint8(5), uint8(2), uint16(3), true)
	f.Add([]byte("0123456789012345678901234567890123456789"), uint8(6), uint8(3), uint16(17), true)
	f.Add([]byte("mississippi"), uint8(3), uint8(4), uint16(5), true)
	f.Add([]byte{}, uint8(2), uint8(0), uint16(0), false)
	f.Add([]byte{1}, uint8(1), uint8(1), uint16(0), false)
	f.Fuzz(func(t *testing.T, raw []byte, pRaw, shape uint8, inner uint16, unique bool) {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		ks := make([]uint64, len(raw))
		for i, b := range raw {
			ks[i] = uint64(b) << 56 // spread over the key range
		}
		p := 1 + int(pRaw%8)
		locals := dealKeys(ks, p, shape)
		targets := seedTargets(int64(len(ks)), int64(inner))
		if !unique {
			checkSeedBrackets(t, locals, keys.Uint64{}, targets, 0)
			return
		}
		triples, tops := uniqueLocals(locals)
		checkSeedBrackets(t, triples, tops, targets, 0)
	})
}
