package keys

import "dhsort/internal/xmath"

// RadixOps is an optional capability on an Ops instance: keys that embed
// into a fixed-width uint64 image can be sorted by the LSD radix kernel
// instead of the comparison introsort — the key-specialized fast path of
// the Local Sort superstep (§VI-B).
type RadixOps[K any] interface {
	// RadixKey returns an order-preserving uint64 image of k and the
	// number of significant low-order bytes in that image (the LSD pass
	// bound, 1-8).  The image must be a strict order isomorphism of Less:
	// RadixKey(a) < RadixKey(b) exactly when Less(a, b) for key types
	// whose Less ignores satellite data, and the width must not depend
	// on k.
	RadixKey(k K) (uint64, int)
}

// RadixImageOps is the capability of key types whose radix image is
// invertible: the key is a function of its image, so the radix kernel sorts
// the 8-byte images alone and rebuilds the keys from the sorted images
// instead of moving every element with its image through every pass.  All
// scalar instances have it; records that carry more than their key (Pair,
// Triple) cannot.  The transforms take a slice at a time so that each runs
// as a plain loop rather than an interface call per element.
type RadixImageOps[K any] interface {
	RadixOps[K]
	// RadixImages stores the RadixKey image of src[i] in dst[i];
	// len(dst) >= len(src).
	RadixImages(dst []uint64, src []K)
	// RadixKeys inverts RadixImages: dst[i] becomes the key whose image is
	// src[i], bit for bit (NaN payloads and the sign of zero included).
	RadixKeys(dst []K, src []uint64)
}

// RadixSelfImage reports whether keys under ops are their own radix image,
// returning s as that image slice when so — the Uint64 identity, for which
// the kernel needs neither an image buffer nor the two transform passes.
// It goes by the Ops instance, not by K: another ordering of uint64 keys
// has another image.
func RadixSelfImage[K any](ops Ops[K], s []K) ([]uint64, bool) {
	if _, ok := any(ops).(Uint64); !ok {
		return nil, false
	}
	return any(s).([]uint64), true
}

// RadixSuffixOps is a second optional capability for key types whose Less
// breaks ties on a secondary fixed-width component (the §V-A uniqueness
// suffix).  The radix kernel sorts by the suffix first and the primary
// image second; because LSD passes are stable, the composition orders by
// (primary, suffix).
type RadixSuffixOps[K any] interface {
	// RadixSuffix returns the secondary image and its byte width.
	RadixSuffix(k K) (uint64, int)
}

// radixCapable is implemented by wrapper Ops (pairs, triples) whose
// RadixKey delegates to a base that may or may not be radix-capable; the
// method reports whether the delegation is safe to call.
type radixCapable interface{ radixCapable() bool }

// Radix reports whether ops can drive the radix kernel for its key type,
// returning the capability when so.  Wrappers over non-radix bases (e.g. a
// Pair over String keys) advertise the interface but decline here, so
// callers must dispatch through Radix rather than a bare type assertion.
func Radix[K any](ops Ops[K]) (RadixOps[K], bool) {
	r, ok := any(ops).(RadixOps[K])
	if !ok {
		return nil, false
	}
	if c, wrapped := any(ops).(radixCapable); wrapped && !c.radixCapable() {
		return nil, false
	}
	return r, true
}

// Scalar instances: the radix image is the high-64 half of the ToBits
// embedding (shifted down for 32-bit keys so the significant bytes are the
// low ones, giving the reduced pass bound).

// RadixKey returns the identity image of a uint64 key.
func (Uint64) RadixKey(k uint64) (uint64, int) { return k, 8 }

// RadixKey returns the sign-flipped image of an int64 key.
func (Int64) RadixKey(k int64) (uint64, int) { return xmath.OrderInt64(k), 8 }

// RadixKey returns the IEEE-754 total-order image of a float64 key.
func (Float64) RadixKey(k float64) (uint64, int) { return xmath.OrderFloat64(k), 8 }

// RadixKey returns the widened image of a uint32 key.
func (Uint32) RadixKey(k uint32) (uint64, int) { return uint64(k), 4 }

// RadixKey returns the sign-flipped image of an int32 key.
func (Int32) RadixKey(k int32) (uint64, int) { return uint64(xmath.OrderInt32(k)), 4 }

// RadixKey returns the IEEE-754 total-order image of a float32 key.
func (Float32) RadixKey(k float32) (uint64, int) { return uint64(xmath.OrderFloat32(k)), 4 }

// Bulk transforms of the scalar instances (RadixImageOps).

func (Uint64) RadixImages(dst []uint64, src []uint64) { copy(dst, src) }
func (Uint64) RadixKeys(dst []uint64, src []uint64)   { copy(dst, src) }

func (Int64) RadixImages(dst []uint64, src []int64) {
	for i, k := range src {
		dst[i] = xmath.OrderInt64(k)
	}
}
func (Int64) RadixKeys(dst []int64, src []uint64) {
	for i, u := range src {
		dst[i] = xmath.UnorderInt64(u)
	}
}

func (Float64) RadixImages(dst []uint64, src []float64) {
	for i, k := range src {
		dst[i] = xmath.OrderFloat64(k)
	}
}
func (Float64) RadixKeys(dst []float64, src []uint64) {
	for i, u := range src {
		dst[i] = xmath.UnorderFloat64(u)
	}
}

func (Uint32) RadixImages(dst []uint64, src []uint32) {
	for i, k := range src {
		dst[i] = uint64(k)
	}
}
func (Uint32) RadixKeys(dst []uint32, src []uint64) {
	for i, u := range src {
		dst[i] = uint32(u)
	}
}

func (Int32) RadixImages(dst []uint64, src []int32) {
	for i, k := range src {
		dst[i] = uint64(xmath.OrderInt32(k))
	}
}
func (Int32) RadixKeys(dst []int32, src []uint64) {
	for i, u := range src {
		dst[i] = xmath.UnorderInt32(uint32(u))
	}
}

func (Float32) RadixImages(dst []uint64, src []float32) {
	for i, k := range src {
		dst[i] = uint64(xmath.OrderFloat32(k))
	}
}
func (Float32) RadixKeys(dst []float32, src []uint64) {
	for i, u := range src {
		dst[i] = xmath.UnorderFloat32(uint32(u))
	}
}

// RadixKey delegates to the base key; satellite data does not participate
// in the ordering, and radix stability keeps equal-key records in input
// order.  Call only when Radix reports the wrapper capable.
func (p PairOps[K, V]) RadixKey(a Pair[K, V]) (uint64, int) {
	return any(p.Base).(RadixOps[K]).RadixKey(a.Key)
}

func (p PairOps[K, V]) radixCapable() bool {
	_, ok := Radix(p.Base)
	return ok
}

// RadixKey delegates to the base key.  Call only when Radix reports the
// wrapper capable.
func (t TripleOps[K]) RadixKey(a Triple[K]) (uint64, int) {
	return any(t.Base).(RadixOps[K]).RadixKey(a.Key)
}

// RadixSuffix returns the (rank, index) uniqueness suffix, the secondary
// sort component of the §V-A transformation.
func (t TripleOps[K]) RadixSuffix(a Triple[K]) (uint64, int) {
	return t.suffix(a), 8
}

func (t TripleOps[K]) radixCapable() bool {
	_, ok := Radix(t.Base)
	return ok
}
