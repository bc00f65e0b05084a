package sortutil

import "sync"

// LSD radix sorts — the "fast shared memory algorithm" alternative for the
// Local Sort superstep when keys are fixed-width integers.  8-bit digits,
// stable.
//
// Every entry works on uint64 key images and shares one front end: a single
// sweep over the images fills the histograms of all digits at once and digits
// on which every key agrees are dropped.  Of the k that remain, only the t
// most significant are scattered — as many as it takes until the keys that
// still share a prefix are expected to be alone with it (prefixPasses) — in
// stable LSD passes that ping-pong between two buffers arranged so that the
// last one lands in the destination.  One sequential scan then finds the
// groups that do share a prefix and orders each on its remaining low bytes
// (nextGroup and the two finishers).  With fewer than two passes to save,
// t = k and the scan has nothing to do: that is the plain LSD sort.
//
// Every entry returns k, not t: the number of digits on which the keys
// differ is the pass count of the plain LSD sort the paper's Local Sort runs
// and the virtual-clock model prices (simnet.RadixSortCost).  The kernel may
// execute fewer.
//
// Two kernels sit behind the front end:
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
// back, a slice at a time (the Codec of a keys.Image: the scalar key types
// implement it).  RadixKeys must invert RadixImages exactly.
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
// means allocate).  It returns the number of digits on which the images
// differ: the passes of the plain LSD sort, which is what the virtual-clock
// cost model prices.  The kernel may execute fewer (see the package comment).
func RadixSortImages(dst []uint64, runs [][]uint64, width int, ar *Arena[uint64]) int {
	n := len(dst)
	inPlace := runs == nil
	if inPlace {
		if n < 2 {
			return 0
		}
		runs = [][]uint64{dst}
	}
	h := ar.histogram()
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
	t := h.prefixPasses(&digits, k, n)
	tmp := ar.Keys(n)
	to, from := passBuffers(dst, tmp, t, inPlace)
	for i, d := range digits[k-t : k] {
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
	if inPlace && t%2 == 1 {
		copy(dst, tmp)
	}
	if t < k {
		finishImages(dst, tmp, digits[k-t], h)
	}
	return k
}

// VaryingDigits returns the number of digits below width on which the images
// of runs do not all agree: the k RadixSortImages returns for the same runs,
// from one XOR/OR sweep and without sorting them.
func VaryingDigits(runs [][]uint64, width int) int {
	first := firstImage(runs)
	if first == nil {
		return 0
	}
	var diff uint64
	for _, r := range runs {
		for _, v := range r {
			diff |= v ^ first[0]
		}
	}
	k := 0
	for d := range clampWidth(width) {
		if uint8(diff>>(8*uint(d))) != 0 {
			k++
		}
	}
	return k
}

// RadixSortKeys sorts keys with an invertible image from runs into dst (nil
// runs: in place) by sorting their images only: one pass encodes the runs
// into an image buffer, the scatter passes move 8 bytes per key whatever
// sizeof(T) is, and one pass decodes the sorted images into dst.  Scratch is
// 2·len(dst) images from ar and no elements.  Returns the number of varying
// digits, as RadixSortImages does.
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
	h := ar.histogram()
	h.add(img, width)
	digits, k := h.active(img, n, width)
	if k == 0 {
		if !inPlace {
			gather(dst, runs)
		}
		return 0
	}
	t := h.prefixPasses(&digits, k, n)
	from, to := img, tmp
	for _, d := range digits[k-t : k] {
		scatterImages(to, from, h.offsets(d), 8*uint(d))
		from, to = to, from
	}
	if t < k {
		finishImages(from, to, digits[k-t], h)
	}
	codec.RadixKeys(dst, from)
	return k
}

// RadixSortFunc is the element+image kernel: it stably sorts the elements of
// runs into dst (nil runs: in place) by the uint64 image of key, which must be
// order-preserving for the intended ordering.  Elements with equal images
// keep their order, earlier runs first.  width is the number of significant
// image bytes (1-8); use 8 when unsure.  Scratch is len(dst) elements and
// 2·len(dst) images from ar.  Returns the number of varying digits, as
// RadixSortImages does.
func RadixSortFunc[T any](dst []T, runs [][]T, key func(T) uint64, width int, ar *Arena[T]) int {
	n := len(dst)
	srcs := runs
	if srcs == nil {
		if n < 2 {
			return 0
		}
		srcs = [][]T{dst}
	}
	scratch := ar.Keys(2 * n)
	off := 0
	for _, r := range srcs {
		for i, v := range r {
			scratch[off+i] = key(v)
		}
		off += len(r)
	}
	return sortKeyed(dst, runs, scratch[:n], scratch[n:], width, ar)
}

// sortKeyed is RadixSortFunc behind the key function: kfrom holds the images
// of runs' elements in order (of dst's when runs is nil), kto is as many
// images of scratch, and ar supplies the element scratch only.
func sortKeyed[T any](dst []T, runs [][]T, kfrom, kto []uint64, width int, ar *Arena[T]) int {
	n := len(dst)
	inPlace := runs == nil
	if inPlace {
		runs = [][]T{dst}
	}
	h := ar.histogram()
	h.add(kfrom, width)
	digits, k := h.active(kfrom, n, width)
	if k == 0 {
		if !inPlace {
			gather(dst, runs)
		}
		return 0
	}
	t := h.prefixPasses(&digits, k, n)
	tmp := ar.Vals(n)
	to, from := passBuffers(dst, tmp, t, inPlace)
	for i, d := range digits[k-t : k] {
		offs := h.offsets(d)
		if i == 0 {
			off := 0
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
	if inPlace && t%2 == 1 {
		copy(dst, tmp)
	}
	if t < k {
		finishKeyed(dst, tmp, kfrom, kto, digits[k-t], h)
	}
	return k
}

// insertionGroup is the largest group the finishers insertion-sort; a larger
// one goes back through the radix kernel on its low bytes, whose fixed cost
// (a fresh digitCounts, 256 offsets per pass) insertion undercuts up to here.
// It matters only where the chooser is wrong, on correlated digits: with
// 2^18 images in groups of 32 the bound 24 measured 14.5 ms, 64 measured
// 7.5 ms, the plain LSD sort 6.5 ms (EXPERIMENTS E10).
const insertionGroup = 64

// finishImages completes a prefix sort: a is ordered on every byte from low
// up, and each group of images that agree there is sorted on its low bytes,
// with tmp[lo:hi] as the scratch of a[lo:hi] and h, the finished sort's
// histogram, as a large group's.
func finishImages(a, tmp []uint64, low int, h *digitCounts) {
	shift := 8 * uint(low)
	for lo, hi := nextGroup(a, 0, shift); lo < len(a); lo, hi = nextGroup(a, hi, shift) {
		g := a[lo:hi]
		if len(g) > insertionGroup {
			RadixSortImages(g, nil, low, &Arena[uint64]{keys: tmp[lo:hi], counts: h})
			continue
		}
		for i := 1; i < len(g); i++ {
			v, j := g[i], i
			for ; j > 0 && g[j-1] > v; j-- {
				g[j] = g[j-1]
			}
			g[j] = v
		}
	}
}

// finishKeyed is finishImages for elements a moving with their images ks,
// which it leaves in no particular state.  Both sorts it uses are stable, so
// elements with equal images keep the order the passes left them in.
func finishKeyed[T any](a, tmp []T, ks, ktmp []uint64, low int, h *digitCounts) {
	shift := 8 * uint(low)
	for lo, hi := nextGroup(ks, 0, shift); lo < len(ks); lo, hi = nextGroup(ks, hi, shift) {
		g, gk := a[lo:hi], ks[lo:hi]
		if len(g) > insertionGroup {
			sortKeyed(g, nil, gk, ktmp[lo:hi], low, &Arena[T]{vals: tmp[lo:hi], counts: h})
			continue
		}
		for i := 1; i < len(g); i++ {
			v, k, j := g[i], gk[i], i
			for ; j > 0 && gk[j-1] > k; j-- {
				g[j], gk[j] = g[j-1], gk[j-1]
			}
			g[j], gk[j] = v, k
		}
	}
}

// nextGroup returns the first maximal run imgs[lo:hi] of two or more images
// that agree above shift and starts at or after from; lo is len(imgs) when
// none is left.  Singletons, the expected case, never leave its loop.
func nextGroup(imgs []uint64, from int, shift uint) (lo, hi int) {
	shift &= 63
	n := len(imgs)
	if from >= n {
		return n, n
	}
	prev := imgs[from] >> shift
	for i := from + 1; i < n; i++ {
		cur := imgs[i] >> shift
		if cur != prev {
			prev = cur
			continue
		}
		for hi = i + 1; hi < n && imgs[hi]>>shift == prev; hi++ {
		}
		return i - 1, hi
	}
	return n, n
}

// digitCounts holds one 256-bin histogram per image byte.
type digitCounts [8][256]int

// countsPool recycles the kernels' 16 KiB histograms between arenas (see
// Arena.histogram).
var countsPool = sync.Pool{New: func() any { return new(digitCounts) }}

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

// prefixSlack is the expected number of other keys sharing a key's prefix at
// which scattering stops: below it nearly every group the finishing scan
// meets is a singleton.
const prefixSlack = 0.25

// prefixPasses returns t, the number of most significant of the k varying
// digits to scatter before the finishing scan takes over.  Taking the digits
// as independent, two keys agree on digit d with probability Σ_b (count_b/n)²,
// so each further digit shrinks the expected company of a key by that share;
// t is the first count that brings it under prefixSlack.  The estimate only
// steers time — the scan sorts whatever groups it finds.  When fewer than
// two passes would be saved the scan cannot pay for itself and t = k.
func (h *digitCounts) prefixPasses(digits *[8]int, k, n int) int {
	others, nn := float64(n), float64(n)*float64(n)
	for t := 1; t <= k-2; t++ {
		sq := 0.0
		for _, c := range h[digits[k-t]] {
			sq += float64(c) * float64(c)
		}
		if others *= sq / nn; others < prefixSlack {
			return t
		}
	}
	return k
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

// passBuffers picks the target of the first of t ping-pong passes, and the
// buffer the second pass will write, so that the last pass writes dst.  An
// in-place sort cannot start by overwriting its own source: it starts into
// tmp, and an odd t ends there (the caller copies back).
func passBuffers[T any](dst, tmp []T, t int, inPlace bool) (to, next []T) {
	if t%2 == 1 && !inPlace {
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
