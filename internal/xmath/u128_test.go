package xmath

import (
	"math/big"
	"testing"
	"testing/quick"
)

func big128(a U128) *big.Int {
	b := new(big.Int).SetUint64(a.Hi)
	b.Lsh(b, 64)
	return b.Add(b, new(big.Int).SetUint64(a.Lo))
}

var mod128 = new(big.Int).Lsh(big.NewInt(1), 128)

func TestU128AddSubAgainstBig(t *testing.T) {
	f := func(ah, al, bh, bl uint64) bool {
		a, b := U128{ah, al}, U128{bh, bl}
		sum := big128(a)
		sum.Add(sum, big128(b)).Mod(sum, mod128)
		if big128(a.Add(b)).Cmp(sum) != 0 {
			return false
		}
		diff := big128(a)
		diff.Sub(diff, big128(b)).Mod(diff, mod128)
		return big128(a.Sub(b)).Cmp(diff) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestU128CmpAgainstBig(t *testing.T) {
	f := func(ah, al, bh, bl uint64) bool {
		a, b := U128{ah, al}, U128{bh, bl}
		return a.Cmp(b) == big128(a).Cmp(big128(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestU128AvgBetween(t *testing.T) {
	f := func(ah, al, bh, bl uint64) bool {
		a, b := U128{ah, al}, U128{bh, bl}
		if b.Less(a) {
			a, b = b, a
		}
		m := a.Avg(b)
		if a == b {
			return m == a
		}
		// a <= m < b, and m is the exact floor midpoint.
		if m.Less(a) || !m.Less(b) {
			return false
		}
		want := big128(a)
		want.Add(want, big128(b)).Rsh(want, 1)
		return big128(m).Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestU128Div64AgainstBig(t *testing.T) {
	f := func(ah, al, d uint64) bool {
		if d == 0 {
			d = 1
		}
		a := U128{ah, al}
		want := big128(a)
		want.Div(want, new(big.Int).SetUint64(d))
		return big128(a.Div64(d)).Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestU128Div64PanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div64(0) did not panic")
		}
	}()
	U128{Lo: 1}.Div64(0)
}

func TestU128Rsh1(t *testing.T) {
	cases := []struct{ in, want U128 }{
		{U128{0, 2}, U128{0, 1}},
		{U128{1, 0}, U128{0, 1 << 63}},
		{U128{3, 1}, U128{1, 1<<63 | 0}},
		{MaxU128, U128{^uint64(0) >> 1, ^uint64(0)}},
	}
	for _, c := range cases {
		if got := c.in.Rsh1(); got != c.want {
			t.Errorf("Rsh1(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestU128IncDec(t *testing.T) {
	if got := (U128{0, ^uint64(0)}).Inc(); got != (U128{1, 0}) {
		t.Errorf("Inc carry failed: %v", got)
	}
	if got := MaxU128.Inc(); got != (U128{}) {
		t.Errorf("Inc wrap failed: %v", got)
	}
}

func TestU128String(t *testing.T) {
	if got := (U128{0, 0xff}).String(); got != "0xff" {
		t.Errorf("String = %q", got)
	}
	if got := (U128{1, 2}).String(); got != "0x10000000000000002" {
		t.Errorf("String = %q", got)
	}
}
