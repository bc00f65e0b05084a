// Package xmath provides the fixed-width integer arithmetic and
// order-preserving bit embeddings that back histogram bisection.
//
// Splitter refinement in the histogram sort repeatedly computes the midpoint
// of a key interval.  Doing that in an order-preserving integer embedding of
// the key space guarantees convergence in at most "key width" iterations,
// matching the behaviour reported in §V-A of the paper.  U128 is wide enough
// to hold a 64-bit key concatenated with a 64-bit uniqueness suffix
// (rank, index), the triple construction of §V-A.
package xmath

import (
	"fmt"
	"math/bits"
)

// U128 is an unsigned 128-bit integer.  The zero value is 0.
type U128 struct {
	Hi uint64
	Lo uint64
}

// U128FromParts assembles a U128 from high and low 64-bit halves.
func U128FromParts(hi, lo uint64) U128 { return U128{Hi: hi, Lo: lo} }

// MaxU128 is the largest representable U128.
var MaxU128 = U128{Hi: ^uint64(0), Lo: ^uint64(0)}

// Add returns a+b, wrapping on overflow.
func (a U128) Add(b U128) U128 {
	lo, carry := bits.Add64(a.Lo, b.Lo, 0)
	hi, _ := bits.Add64(a.Hi, b.Hi, carry)
	return U128{Hi: hi, Lo: lo}
}

// Sub returns a-b, wrapping on underflow.
func (a U128) Sub(b U128) U128 {
	lo, borrow := bits.Sub64(a.Lo, b.Lo, 0)
	hi, _ := bits.Sub64(a.Hi, b.Hi, borrow)
	return U128{Hi: hi, Lo: lo}
}

// Rsh1 returns a>>1.
func (a U128) Rsh1() U128 {
	return U128{Hi: a.Hi >> 1, Lo: a.Lo>>1 | a.Hi<<63}
}

// Cmp returns -1 if a<b, 0 if a==b, +1 if a>b.
func (a U128) Cmp(b U128) int {
	switch {
	case a.Hi < b.Hi:
		return -1
	case a.Hi > b.Hi:
		return 1
	case a.Lo < b.Lo:
		return -1
	case a.Lo > b.Lo:
		return 1
	}
	return 0
}

// Less reports whether a < b.
func (a U128) Less(b U128) bool { return a.Cmp(b) < 0 }

// Avg returns the midpoint floor((a+b)/2) without overflow.  The result m
// satisfies a <= m < b whenever a < b, the property splitter bisection relies
// on for termination.
func (a U128) Avg(b U128) U128 {
	if b.Less(a) {
		a, b = b, a
	}
	return a.Add(b.Sub(a).Rsh1())
}

// Inc returns a+1, wrapping on overflow.
func (a U128) Inc() U128 { return a.Add(U128{Lo: 1}) }

// Div64 returns a/d (truncated).  d must be non-zero.  Splitter refinement
// uses it to place k evenly spaced probes across an interval: the step is
// width/(k+1), which a 128-bit ÷ 64-bit division computes exactly.
func (a U128) Div64(d uint64) U128 {
	if d == 0 {
		panic("xmath: division by zero")
	}
	hi := a.Hi / d
	rem := a.Hi % d
	lo, _ := bits.Div64(rem, a.Lo, d)
	return U128{Hi: hi, Lo: lo}
}

// String renders a in hexadecimal, for diagnostics.
func (a U128) String() string {
	if a.Hi == 0 {
		return fmt.Sprintf("0x%x", a.Lo)
	}
	return fmt.Sprintf("0x%x%016x", a.Hi, a.Lo)
}
