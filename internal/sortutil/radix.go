package sortutil

// LSD radix sorts — the "fast shared memory algorithm" alternative for the
// Local Sort superstep when keys are fixed-width integers.  8-bit digits,
// one scatter pass per non-constant digit, stable.
//
// Every entry works on uint64 key images and shares one front end: a single
// sweep over the images fills the histograms of all digits at once, digits on
// which every key agrees are dropped, and the remaining passes ping-pong
// between two buffers arranged so that the last pass lands in the
// destination.  Two kernels sit behind it:
//
//   - image-only (RadixSortImages, RadixSortKeys): for keys that are a
//     function of their image.  Only the 8-byte images travel through the
//     scatter passes; the keys are rebuilt from the sorted images at the end.
//   - element+image (RadixSortFunc): for records that carry more than their
//     key.  The element moves with its cached image, so the key function is
//     still evaluated once per element, not once per element and digit.
//
// All entries gather: they read one or several source runs and write the
// sorted concatenation to dst, so a caller holding its input as separate
// blocks (or as a slice it must not modify) needs no copy in front of the
// sort.  A nil runs argument sorts dst in place.

// ImageCodec converts keys to their order-preserving uint64 radix images and
// back, a slice at a time (keys.RadixImageOps is the implementation for the
// scalar key types).  RadixKeys must invert RadixImages exactly.
type ImageCodec[T any] interface {
	// RadixImages stores the image of src[i] in dst[i]; len(dst) >= len(src).
	RadixImages(dst []uint64, src []T)
	// RadixKeys stores the key whose image is src[i] in dst[i].
	RadixKeys(dst []T, src []uint64)
}

// RadixSortUint64 sorts a in ascending order: at most 8 scatter passes over
// the keys themselves, with len(a) keys of scratch.
func RadixSortUint64(a []uint64) {
	RadixSortImages(a, nil, 8, nil)
}

// RadixSortImages sorts uint64 images — keys that are their own image — from
// runs into dst, which must hold exactly the runs' total length and must not
// overlap them; nil runs sorts dst in place.  width is the number of
// significant low-order bytes (1-8).  Scratch is len(dst) images from ar (nil
// means allocate).  It returns the number of scatter passes executed —
// constant digits are skipped — which the virtual-clock cost model uses to
// price the sort honestly.
func RadixSortImages(dst []uint64, runs [][]uint64, width int, ar *Arena[uint64]) int {
	n := len(dst)
	inPlace := runs == nil
	if inPlace {
		if n < 2 {
			return 0
		}
		runs = [][]uint64{dst}
	}
	var h digitCounts
	for _, r := range runs {
		h.add(r, width)
	}
	digits, k := h.active(firstImage(runs), n, width)
	if k == 0 {
		if !inPlace {
			gather(dst, runs)
		}
		return 0
	}
	tmp := ar.Keys(n)
	to, from := passBuffers(dst, tmp, k, inPlace)
	for i, d := range digits[:k] {
		offs := h.offsets(d)
		if i == 0 {
			for _, r := range runs {
				scatterImages(to, r, offs, 8*uint(d))
			}
		} else {
			scatterImages(to, from, offs, 8*uint(d))
		}
		to, from = from, to
	}
	if inPlace && k%2 == 1 {
		copy(dst, tmp)
	}
	return k
}

// RadixSortKeys sorts keys with an invertible image from runs into dst (nil
// runs: in place) by sorting their images only: one pass encodes the runs
// into an image buffer, the scatter passes move 8 bytes per key whatever
// sizeof(T) is, and one pass decodes the sorted images into dst.  Scratch is
// 2·len(dst) images from ar and no elements.  Returns the scatter passes
// executed, as RadixSortImages does.
func RadixSortKeys[T any](dst []T, runs [][]T, width int, codec ImageCodec[T], ar *Arena[T]) int {
	n := len(dst)
	inPlace := runs == nil
	if inPlace {
		if n < 2 {
			return 0
		}
		runs = [][]T{dst}
	}
	scratch := ar.Keys(2 * n)
	img, tmp := scratch[:n], scratch[n:]
	off := 0
	for _, r := range runs {
		codec.RadixImages(img[off:off+len(r)], r)
		off += len(r)
	}
	var h digitCounts
	h.add(img, width)
	digits, k := h.active(img, n, width)
	if k == 0 {
		if !inPlace {
			gather(dst, runs)
		}
		return 0
	}
	from, to := img, tmp
	for _, d := range digits[:k] {
		scatterImages(to, from, h.offsets(d), 8*uint(d))
		from, to = to, from
	}
	codec.RadixKeys(dst, from)
	return k
}

// RadixSortFunc is the element+image kernel: it stably sorts the elements of
// runs into dst (nil runs: in place) by the uint64 image of key, which must be
// order-preserving for the intended ordering.  Elements with equal images
// keep their order, earlier runs first.  width is the number of significant
// image bytes (1-8); use 8 when unsure.  Scratch is len(dst) elements and
// 2·len(dst) images from ar.  Returns the scatter passes executed.
func RadixSortFunc[T any](dst []T, runs [][]T, key func(T) uint64, width int, ar *Arena[T]) int {
	n := len(dst)
	inPlace := runs == nil
	if inPlace {
		if n < 2 {
			return 0
		}
		runs = [][]T{dst}
	}
	scratch := ar.Keys(2 * n)
	kfrom, kto := scratch[:n], scratch[n:]
	off := 0
	for _, r := range runs {
		for i, v := range r {
			kfrom[off+i] = key(v)
		}
		off += len(r)
	}
	var h digitCounts
	h.add(kfrom, width)
	digits, k := h.active(kfrom, n, width)
	if k == 0 {
		if !inPlace {
			gather(dst, runs)
		}
		return 0
	}
	tmp := ar.Vals(n)
	to, from := passBuffers(dst, tmp, k, inPlace)
	for i, d := range digits[:k] {
		offs := h.offsets(d)
		if i == 0 {
			off = 0
			for _, r := range runs {
				scatterKeyed(to, kto, r, kfrom[off:off+len(r)], offs, 8*uint(d))
				off += len(r)
			}
		} else {
			scatterKeyed(to, kto, from, kfrom, offs, 8*uint(d))
		}
		to, from = from, to
		kto, kfrom = kfrom, kto
	}
	if inPlace && k%2 == 1 {
		copy(dst, tmp)
	}
	return k
}

// digitCounts holds one 256-bin histogram per image byte.
type digitCounts [8][256]int

// add counts every digit of every image in one sweep.
func (h *digitCounts) add(imgs []uint64, width int) {
	switch w := clampWidth(width); w {
	case 8:
		for _, k := range imgs {
			h[0][uint8(k)]++
			h[1][uint8(k>>8)]++
			h[2][uint8(k>>16)]++
			h[3][uint8(k>>24)]++
			h[4][uint8(k>>32)]++
			h[5][uint8(k>>40)]++
			h[6][uint8(k>>48)]++
			h[7][uint8(k>>56)]++
		}
	case 4:
		for _, k := range imgs {
			h[0][uint8(k)]++
			h[1][uint8(k>>8)]++
			h[2][uint8(k>>16)]++
			h[3][uint8(k>>24)]++
		}
	default:
		for _, k := range imgs {
			for d := 0; d < w; d++ {
				h[d][uint8(k>>(8*uint(d)))]++
			}
		}
	}
}

// active lists, in LSD order, the digits below width on which the n counted
// images do not all agree; first is any one of them.
func (h *digitCounts) active(first []uint64, n, width int) (digits [8]int, k int) {
	if len(first) == 0 {
		return digits, 0
	}
	for d := range clampWidth(width) {
		if h[d][uint8(first[0]>>(8*uint(d)))] != n {
			digits[k] = d
			k++
		}
	}
	return digits, k
}

// offsets turns digit d's histogram into bucket start offsets, in place.
func (h *digitCounts) offsets(d int) *[256]int {
	c := &h[d]
	pos := 0
	for i, n := range c {
		c[i], pos = pos, pos+n
	}
	return c
}

func clampWidth(width int) int {
	return max(1, min(width, 8))
}

// firstImage returns the first non-empty run (nil when all are empty).
func firstImage(runs [][]uint64) []uint64 {
	for _, r := range runs {
		if len(r) > 0 {
			return r
		}
	}
	return nil
}

// gather concatenates runs into dst.
func gather[T any](dst []T, runs [][]T) {
	off := 0
	for _, r := range runs {
		off += copy(dst[off:], r)
	}
}

// passBuffers picks the target of the first of k ping-pong passes, and the
// buffer the second pass will write, so that the last pass writes dst.  An
// in-place sort cannot start by overwriting its own source: it starts into
// tmp, and an odd k ends there (the caller copies back).
func passBuffers[T any](dst, tmp []T, k int, inPlace bool) (to, next []T) {
	if k%2 == 1 && !inPlace {
		return dst, tmp
	}
	return tmp, dst
}

// scatterImages appends src's images to their digit buckets in dst,
// advancing the bucket offsets, so consecutive calls with one offs continue
// the same pass.
//
// This loop is where a scalar sort spends its time, and it is bound by
// instruction count, not memory: it stays out of line (inlined into its
// callers it competes for registers and spills its induction variable), and
// the masked shift and the hoisted nil check keep the shift-range and nil
// tests out of the loop body — together a third of the kernel's time.
//
//go:noinline
func scatterImages(dst, src []uint64, offs *[256]int, shift uint) {
	shift &= 63
	_ = offs[0]
	for _, k := range src {
		b := uint8(k >> shift)
		p := offs[b]
		dst[p] = k
		offs[b] = p + 1
	}
}

// scatterKeyed is scatterImages moving each element along with its image.
//
//go:noinline
func scatterKeyed[T any](dst []T, kdst []uint64, src []T, ksrc []uint64, offs *[256]int, shift uint) {
	shift &= 63
	_ = offs[0]
	src = src[:len(ksrc)]
	for i, k := range ksrc {
		b := uint8(k >> shift)
		p := offs[b]
		dst[p] = src[i]
		kdst[p] = k
		offs[b] = p + 1
	}
}
