package sortutil

// Arena is a reusable per-rank scratch allocation for the hot sort path.
// The compute supersteps (Local Sort, Local Merge) each need scratch that
// depends on the kernel: the image-only radix sorts draw only uint64 images
// (n for keys that are their own image, 2n otherwise), the element+image
// radix n elements and 2n images, the merge sorts n elements.  An Arena lets
// one rank pay those allocations once per run instead of once per kernel
// call.  A resident sort also lands its ALLTOALLV in the arena — for uint64
// keys in the image buffer the radix Local Sort used, for other scalars in
// the element buffer — and its Local Merge may return that buffer as the
// sorted partition, so an arena lives for one sort and is spent with it.
// The zero value is ready to use.  An Arena is not safe for concurrent use;
// each rank goroutine owns its own.
type Arena[T any] struct {
	vals   []T
	keys   []uint64
	counts *digitCounts
}

// histogram returns the radix kernels' 16 KiB digit histogram, cleared: the
// arena's, taken from a pool on first use, since a local one would grow the
// rank goroutine's stack every sort for the GC to shrink again.  Nil
// receivers get a fresh one.
func (ar *Arena[T]) histogram() *digitCounts {
	if ar == nil {
		return new(digitCounts)
	}
	if ar.counts == nil {
		ar.counts = countsPool.Get().(*digitCounts)
	}
	*ar.counts = digitCounts{}
	return ar.counts
}

// Release hands the arena's histogram back to the pool for the next arena;
// the arena's buffers stay with their holders.  Nil receivers are a no-op.
func (ar *Arena[T]) Release() {
	if ar != nil && ar.counts != nil {
		countsPool.Put(ar.counts)
		ar.counts = nil
	}
}

// Vals returns a scratch element buffer of length n, growing the backing
// store when needed.  The contents are unspecified.  Nil receivers get a
// fresh allocation, so callers can thread an optional arena without
// nil-checking.
func (ar *Arena[T]) Vals(n int) []T {
	if ar == nil {
		return make([]T, n)
	}
	if cap(ar.vals) < n {
		ar.vals = make([]T, n)
	}
	ar.vals = ar.vals[:n]
	return ar.vals
}

// Keys returns a scratch uint64 buffer of length n for cached radix key
// images, growing the backing store when needed.  Nil receivers get a
// fresh allocation.
func (ar *Arena[T]) Keys(n int) []uint64 {
	if ar == nil {
		return make([]uint64, n)
	}
	if cap(ar.keys) < n {
		ar.keys = make([]uint64, n)
	}
	ar.keys = ar.keys[:n]
	return ar.keys
}
