package keys

import "dhsort/internal/xmath"

// Triple makes duplicate keys globally unique, the transformation of §V-A:
// each key x becomes (x, processor id, local index).  The suffix occupies the
// low 64 bits of the embedding, so bisection still converges in at most 128
// iterations even when every key is equal.
type Triple[K any] struct {
	Key   K
	Rank  uint32 // originating processor
	Index uint32 // position in the originating local sequence
}

// TripleOps lifts a scalar Ops to Triple keys.  The base Ops must embed into
// the high 64 bits only (all scalar instances in this package do).
type TripleOps[K any] struct {
	Base Ops[K]
}

// NewTripleOps returns Ops for Triple[K] on top of base.
func NewTripleOps[K any](base Ops[K]) TripleOps[K] { return TripleOps[K]{Base: base} }

// tripleSuffix is the (rank, index) uniqueness suffix of k.
func tripleSuffix[K any](k Triple[K]) uint64 {
	return uint64(k.Rank)<<32 | uint64(k.Index)
}

// Less orders by key, then rank, then index.
func (t TripleOps[K]) Less(a, b Triple[K]) bool {
	if t.Base.Less(a.Key, b.Key) {
		return true
	}
	if t.Base.Less(b.Key, a.Key) {
		return false
	}
	return tripleSuffix(a) < tripleSuffix(b)
}

// ToBits concatenates the key embedding (high) and the uniqueness suffix (low).
func (t TripleOps[K]) ToBits(k Triple[K]) xmath.U128 {
	return xmath.U128FromParts(t.Base.ToBits(k.Key).Hi, tripleSuffix(k))
}

// FromBits reconstructs a triple; the key part is mapped through the base
// inverse and the suffix is preserved exactly.
func (t TripleOps[K]) FromBits(b xmath.U128) Triple[K] {
	return Triple[K]{
		Key:   t.Base.FromBits(xmath.U128FromParts(b.Hi, 0)),
		Rank:  uint32(b.Lo >> 32),
		Index: uint32(b.Lo),
	}
}

// Bytes adds the 8-byte suffix the paper notes must be communicated during
// histogramming when the transformation is applied.
func (t TripleOps[K]) Bytes() int { return t.Base.Bytes() + 8 }

// MakeUnique wraps the elements of local into triples tagged with this
// rank and their local index.
func MakeUnique[K any](local []K, rank int) []Triple[K] {
	out := make([]Triple[K], len(local))
	for i, k := range local {
		out[i] = Triple[K]{Key: k, Rank: uint32(rank), Index: uint32(i)}
	}
	return out
}

// StripUnique projects triples back to their keys, reusing no storage.
func StripUnique[K any](in []Triple[K]) []K {
	out := make([]K, len(in))
	for i, t := range in {
		out[i] = t.Key
	}
	return out
}
