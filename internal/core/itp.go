package core

import (
	"math"
	"math/bits"

	"dhsort/internal/xmath"
)

// ITP placement (Interpolate, Truncate, Project: Oliveira and Takahashi,
// ACM TOMS 2021) is how bisect places its single probe when Probes <= 1 on
// keys with an exact 64-bit image.  It aims the probe where the bracket
// ends' global counts say the target lies and projects it into the window
// that keeps bisection's worst case: a boundary takes at most the bit length
// of its seeded bracket's width in key images, plus itpSlack rounds.
// Placement is a pure function of the bracket and its counts, so every rank
// places the same probe.

// itpSlack is n0 of ITP: the rounds a boundary may spend beyond bisection's
// worst case.
const itpSlack = 1

// itpKappa is κ1·w0 of ITP's truncation δ = κ1·w^κ2 with κ2 = 2: a probe
// moves toward the midpoint by 0.2·w²/w0, w0 the seeded bracket's width.
const itpKappa = 0.2

// itpLine is the line ITP places a boundary's probe on: the key images
// ToBits(k).Hi >> shift of a keys.Image without a suffix.  Float keys
// interpolate on their values (value maps an image to its key's value, image
// back: the image's value line), integer keys on the image.  Key types with
// no such image (Triple, strings) keep the midpoint.
type itpLine struct {
	shift uint
	value func(image uint64) float64
	image func(v float64) uint64
}

// itpState is a boundary's ITP bookkeeping: U of its last too-low probe and
// L of its first too-high probe (-1 while that end is the seeded one), the
// seeded bracket's width in key images, and the rounds left of its budget.
type itpState struct {
	ua, lb int64
	w0     float64
	left   int
}

// ends returns the bracket [lo, hi] as key images: the least image at or
// above lo and the greatest at or below hi.  ok is false when no image lies
// in between.
func (l *itpLine) ends(lo, hi xmath.U128) (a, b uint64, ok bool) {
	a, b = lo.Hi>>l.shift, hi.Hi>>l.shift
	if lo.Lo != 0 || lo.Hi&(1<<l.shift-1) != 0 {
		if a == math.MaxUint64>>l.shift {
			return 0, 0, false
		}
		a++
	}
	return a, b, a <= b
}

// point is the bit point of key image u.
func (l *itpLine) point(u uint64) xmath.U128 { return xmath.U128{Hi: u << l.shift} }

// seed opens boundary st's ITP state from its seeded bracket [lo, hi]: no
// counts at either end, and a budget of bisection's worst case plus
// itpSlack rounds.
func (l *itpLine) seed(st *itpState, lo, hi xmath.U128) {
	st.ua, st.lb = -1, -1
	if a, b, ok := l.ends(lo, hi); ok {
		st.w0 = float64(b - a)
		st.left = bits.Len64(b-a) + itpSlack
	}
}

// probe returns the image of boundary st's next probe in [a, b), a < b,
// for target T, and spends a round of its budget.
//
// Interpolate: the point where the counts at the bracket ends reach T, on
// the keys' values when both ends are finite floats and on the images
// otherwise.  An end without a count mirrors the other about T, which puts
// the point at the middle.  Truncate: move it toward the image midpoint by
// δ = 0.2·w²/w0, or onto the midpoint when it is closer than δ.  Project:
// clamp it into the window from which either verdict leaves at most
// 2^(left-1) - 1 images, so that the rounds left still cover bisection.
// The float arithmetic is written with explicit conversions so that no
// fused multiply-add can move a probe between architectures.
func (l *itpLine) probe(st *itpState, a, b uint64, T int64) uint64 {
	t := 0.5
	if st.ua >= 0 && st.lb >= 0 {
		t = float64(T-st.ua) / float64(st.lb-st.ua)
	}
	w := float64(b - a)
	xf := float64(t * w)
	if l.value != nil {
		va, vb := l.value(a), l.value(b)
		if d := float64(vb - va); d > 0 && !math.IsInf(d, 0) {
			u := min(max(l.image(float64(va+float64(t*d))), a), b)
			xf = float64(u - a)
		}
	}
	mid := float64(0.5 * w)
	delta := float64(float64(itpKappa*w) * float64(w/st.w0))
	xt := mid
	switch d := float64(mid - xf); {
	case d > delta:
		xt = float64(xf + delta)
	case -d > delta:
		xt = float64(xf - delta)
	}
	x := a
	switch {
	case xt >= w:
		x = b
	case xt > 0:
		x = a + uint64(xt)
	}

	lo, hi := a, b-1
	if st.left <= 64 {
		if budget := uint64(1)<<max(st.left-1, 0) - 1; b-a > budget {
			lo, hi = b-1-budget, a+budget
		}
	}
	st.left--
	return min(max(x, lo), hi)
}
