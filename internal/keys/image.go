package keys

import "dhsort/internal/xmath"

// Image describes the exact uint64 image of a key type's order, the
// fixed-width embedding the §V-A refinement bisects and the key-specialized
// kernels of the Local Sort superstep (§VI-B) sort on.  ImageOf is the only
// way to obtain one; its zero value is a key type without an image.
type Image[K any] struct {
	// Width is the number of significant low-order bytes of the image
	// (1-8), the LSD pass bound; 0 means the keys have no uint64 image,
	// and every other field but Lossless is then zero.
	Width int
	// Shift places the image in the embedding: without a Suffix,
	// ToBits(k) == {Hi: Of(k) << Shift, Lo: 0}.
	Shift uint
	// Of returns the image of k.  Without a Suffix, Of(a) < Of(b) exactly
	// when Less(a, b); with one, exactly when (Of, Suffix) of a orders
	// lexicographically before that of b.
	Of func(k K) uint64
	// Codec converts keys to their images and back a slice at a time, for
	// keys that are a function of their image (the scalars, which have no
	// Suffix); nil otherwise.
	Codec Codec[K]
	// Self reports that K is uint64 and every key is its own image: the
	// Uint64 instance, for which the kernels need neither an image buffer
	// nor the transforms.  Another ordering of uint64 keys has another image.
	Self bool
	// Suffix is the secondary image that breaks the ties of Of, the §V-A
	// uniqueness suffix, and SuffixWidth its byte width; nil when Of alone
	// orders the keys.  LSD passes are stable, so sorting by Suffix and then
	// by Of orders by (Of, Suffix).
	Suffix      func(k K) uint64
	SuffixWidth int
	// Lossless reports that FromBits(ToBits(k)) reconstructs k itself, not
	// merely an order-equivalent surrogate, so keys survive the 128-bit run
	// records of the out-of-core store.
	Lossless bool
	// Value maps an image to its key's value and FromValue a value back to
	// the nearest image, for keys whose images are not evenly spaced in
	// value (floats): the line ITP interpolates on.  Both nil when the
	// images themselves are that line.
	Value     func(image uint64) float64
	FromValue func(v float64) uint64
}

// Codec converts keys to their images and back, a slice at a time, so that
// each transform runs as a plain loop rather than a call per element.  It is
// sortutil.ImageCodec; the scalar instances implement it.
type Codec[K any] interface {
	// RadixImages stores the image of src[i] in dst[i]; len(dst) >= len(src).
	RadixImages(dst []uint64, src []K)
	// RadixKeys stores in dst[i] the key whose image is src[i], bit for bit
	// (NaN payloads and the sign of zero included).
	RadixKeys(dst []K, src []uint64)
}

// imageOps is implemented by the wrapper Ops (Pair, Triple and any other
// Ops whose keys carry more than a scalar) to declare their image.
type imageOps[K any] interface{ Image() Image[K] }

// ImageOf returns the image of ops' keys.  The six scalars are recognised by
// their Ops instance, not by K or by their methods, so an Ops that embeds a
// scalar to reorder its keys gets no image; other Ops declare theirs through
// an Image() Image[K] method.  On a scalar it allocates nothing.
func ImageOf[K any](ops Ops[K]) Image[K] {
	var im any
	switch o := any(ops).(type) {
	case Uint64:
		im = &uint64Image
	case Int64:
		im = &int64Image
	case Float64:
		im = &float64Image
	case Uint32:
		im = &uint32Image
	case Int32:
		im = &int32Image
	case Float32:
		im = &float32Image
	case imageOps[K]:
		return o.Image()
	default:
		return Image[K]{}
	}
	return *im.(*Image[K])
}

var (
	uint64Image = Image[uint64]{Width: 8, Self: true, Lossless: true, Codec: Uint64{},
		Of: func(k uint64) uint64 { return k }}
	int64Image = Image[int64]{Width: 8, Lossless: true, Codec: Int64{},
		Of: xmath.OrderInt64}
	float64Image = Image[float64]{Width: 8, Lossless: true, Codec: Float64{},
		Of: xmath.OrderFloat64, Value: xmath.UnorderFloat64, FromValue: xmath.OrderFloat64}
	uint32Image = Image[uint32]{Width: 4, Shift: 32, Lossless: true, Codec: Uint32{},
		Of: func(k uint32) uint64 { return uint64(k) }}
	int32Image = Image[int32]{Width: 4, Shift: 32, Lossless: true, Codec: Int32{},
		Of: func(k int32) uint64 { return uint64(xmath.OrderInt32(k)) }}
	float32Image = Image[float32]{Width: 4, Shift: 32, Lossless: true, Codec: Float32{},
		Of:        func(k float32) uint64 { return uint64(xmath.OrderFloat32(k)) },
		Value:     func(u uint64) float64 { return float64(xmath.UnorderFloat32(uint32(u))) },
		FromValue: func(v float64) uint64 { return uint64(xmath.OrderFloat32(float32(v))) }}
)

// The bulk transforms of the scalar instances (Codec).

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

// Image is the base key's image read through the record: satellite data does
// not participate in the ordering, and radix stability keeps equal-key
// records in input order.  A record is not a function of its key, so it has
// no codec and is not lossless; its embedding is the base's, so it keeps the
// base's shift and value line.
func (p PairOps[K, V]) Image() Image[Pair[K, V]] {
	b := ImageOf(p.Base)
	if b.Width == 0 {
		return Image[Pair[K, V]]{}
	}
	of := b.Of
	im := Image[Pair[K, V]]{Width: b.Width, Shift: b.Shift, Of: func(r Pair[K, V]) uint64 { return of(r.Key) },
		SuffixWidth: b.SuffixWidth, Value: b.Value, FromValue: b.FromValue}
	if sfx := b.Suffix; sfx != nil {
		im.Suffix = func(r Pair[K, V]) uint64 { return sfx(r.Key) }
	}
	return im
}

// Image is the base key's image with the (rank, index) uniqueness suffix as
// its secondary stage.  The suffix is preserved exactly in the low 64 bits of
// the embedding, so a triple round-trips whenever its key does.
func (t TripleOps[K]) Image() Image[Triple[K]] {
	b := ImageOf(t.Base)
	if b.Width == 0 {
		return Image[Triple[K]]{Lossless: b.Lossless}
	}
	of := b.Of
	return Image[Triple[K]]{Width: b.Width, Shift: b.Shift, Of: func(k Triple[K]) uint64 { return of(k.Key) },
		Suffix: tripleSuffix[K], SuffixWidth: 8, Lossless: b.Lossless}
}
