// Package keys defines the key abstraction used by the distributed sorting
// algorithms.
//
// The histogram sort needs two capabilities from a key type: an ordering
// (Less) and a way to bisect a key interval (the splitter refinement
// S_i <- (S_il + S_iu)/2 of Algorithm 3 in the paper).  Bisection is
// performed in an order-preserving fixed-width integer embedding of the key
// space (ToBits/FromBits), which bounds the number of histogramming
// iterations by the number of significant key bits — §V-A reports that
// bound being paid in full (~60-64 iterations for 64-bit keys, ~25-35 for
// 32-bit floats, independent of the number of processors).  A boundary here
// is done as soon as a probe falls between the two keys around its target
// rank, so a run pays about log2(key range / gap between neighbouring
// keys) iterations and reaches the bound only on keys with no gaps.
package keys

import "dhsort/internal/xmath"

// Ops supplies the operations the sorting algorithms need for key type K.
// Implementations must be stateless (safe for concurrent use by all ranks).
//
// The key-specialized kernels and searches run on the exact uint64 image
// ImageOf describes.  A custom Ops gets no image by embedding a scalar
// instance — it sorts and searches through Less — and declares one with an
// Image() Image[K] method.
type Ops[K any] interface {
	// Less reports whether a orders strictly before b.
	Less(a, b K) bool
	// ToBits embeds a key into the unsigned 128-bit space such that
	// Less(a, b) == ToBits(a) < ToBits(b).
	ToBits(K) xmath.U128
	// FromBits maps a point of the embedded space back to a key.  The
	// result need not be an input element (splitters are arbitrary pivot
	// values), but the mapping must be monotone and must satisfy
	// ToBits(FromBits(ToBits(k))) == ToBits(k) for all keys k.
	FromBits(xmath.U128) K
	// Bytes is the wire size of one key, used for communication-volume
	// accounting in the network cost model.
	Bytes() int
}

// Scalar keys embed into the high 64 bits of the 128-bit space so that a
// uniqueness suffix (see Triple) can occupy the low 64 bits.

// Uint64 is the Ops instance for uint64 keys.
type Uint64 struct{}

func (Uint64) Less(a, b uint64) bool        { return a < b }
func (Uint64) ToBits(k uint64) xmath.U128   { return xmath.U128FromParts(k, 0) }
func (Uint64) FromBits(b xmath.U128) uint64 { return b.Hi }
func (Uint64) Bytes() int                   { return 8 }

// Int64 is the Ops instance for int64 keys.
type Int64 struct{}

func (Int64) Less(a, b int64) bool        { return a < b }
func (Int64) ToBits(k int64) xmath.U128   { return xmath.U128FromParts(xmath.OrderInt64(k), 0) }
func (Int64) FromBits(b xmath.U128) int64 { return xmath.UnorderInt64(b.Hi) }
func (Int64) Bytes() int                  { return 8 }

// Float64 is the Ops instance for float64 keys (IEEE-754 total order; NaNs
// sort above +Inf and -0 below +0).
type Float64 struct{}

func (Float64) Less(a, b float64) bool {
	return xmath.OrderFloat64(a) < xmath.OrderFloat64(b)
}
func (Float64) ToBits(k float64) xmath.U128 {
	return xmath.U128FromParts(xmath.OrderFloat64(k), 0)
}
func (Float64) FromBits(b xmath.U128) float64 { return xmath.UnorderFloat64(b.Hi) }
func (Float64) Bytes() int                    { return 8 }

// Uint32 is the Ops instance for uint32 keys.  The 32-bit embedding gives
// the reduced iteration bound of §V-A for narrow keys.
type Uint32 struct{}

func (Uint32) Less(a, b uint32) bool { return a < b }
func (Uint32) ToBits(k uint32) xmath.U128 {
	return xmath.U128FromParts(uint64(k)<<32, 0)
}
func (Uint32) FromBits(b xmath.U128) uint32 { return uint32(b.Hi >> 32) }
func (Uint32) Bytes() int                   { return 4 }

// Int32 is the Ops instance for int32 keys.
type Int32 struct{}

func (Int32) Less(a, b int32) bool { return a < b }
func (Int32) ToBits(k int32) xmath.U128 {
	return xmath.U128FromParts(uint64(xmath.OrderInt32(k))<<32, 0)
}
func (Int32) FromBits(b xmath.U128) int32 { return xmath.UnorderInt32(uint32(b.Hi >> 32)) }
func (Int32) Bytes() int                  { return 4 }

// Float32 is the Ops instance for float32 keys.
type Float32 struct{}

func (Float32) Less(a, b float32) bool {
	return xmath.OrderFloat32(a) < xmath.OrderFloat32(b)
}
func (Float32) ToBits(k float32) xmath.U128 {
	return xmath.U128FromParts(uint64(xmath.OrderFloat32(k))<<32, 0)
}
func (Float32) FromBits(b xmath.U128) float32 { return xmath.UnorderFloat32(uint32(b.Hi >> 32)) }
func (Float32) Bytes() int                    { return 4 }
