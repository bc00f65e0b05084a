package keys

// LosslessOps is an optional capability on an Ops instance: keys whose
// ToBits embedding is exact — FromBits(ToBits(k)) reconstructs k itself, not
// merely an order-equivalent surrogate — can round-trip through the 128-bit
// run records of the out-of-core store.  The external-memory sort spills key
// images to disk runs and decodes them back through FromBits, so it is only
// available for lossless key types; keys with satellite data outside the
// embedding (pairs) or unbounded width (strings) stay resident.
type LosslessOps interface {
	// LosslessBits reports whether the embedding reconstructs keys exactly.
	LosslessBits() bool
}

// Lossless reports whether ops' keys survive a ToBits/FromBits round trip
// exactly, making them eligible for the spill path.  Wrappers over lossy
// bases advertise the interface but decline here, mirroring Radix dispatch.
func Lossless[K any](ops Ops[K]) bool {
	c, ok := any(ops).(LosslessOps)
	return ok && c.LosslessBits()
}

// All scalar embeddings are bijections onto their image: the key occupies
// the high bits exactly.
func (Uint64) LosslessBits() bool  { return true }
func (Int64) LosslessBits() bool   { return true }
func (Float64) LosslessBits() bool { return true }
func (Uint32) LosslessBits() bool  { return true }
func (Int32) LosslessBits() bool   { return true }
func (Float32) LosslessBits() bool { return true }

// LosslessBits delegates to the base key: the (rank, index) suffix is
// preserved exactly in the low 64 bits, so a triple round-trips whenever its
// key does.
func (t TripleOps[K]) LosslessBits() bool { return Lossless(t.Base) }

// ScalarImages reports whether ops is one of the six scalar instances and,
// when so, returns its bulk radix transforms and the left shift that turns a
// radix image into the ToBits embedding: ToBits(k) is the image shifted to
// the top of the high word, over an empty low word.  It goes by the Ops
// instance, like RadixSelfImage — another ordering may have the capability
// without that relation — and lets the spill path encode and decode run
// records a block at a time instead of through an interface call per key.
func ScalarImages[K any](ops Ops[K]) (RadixImageOps[K], uint, bool) {
	switch any(ops).(type) {
	case Uint64, Int64, Float64:
		return any(ops).(RadixImageOps[K]), 0, true
	case Uint32, Int32, Float32:
		return any(ops).(RadixImageOps[K]), 32, true
	}
	return nil, 0, false
}
