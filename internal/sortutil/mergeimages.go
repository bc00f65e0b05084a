package sortutil

import (
	"math/bits"

	"dhsort/internal/xmath"
)

// MergeImages merges sorted uint64 images — keys that are their own image —
// from runs, with a and b as its two buffers: mergeLanded over branch-free
// two-way merges (mergeTwoImages).
func MergeImages(a, b []uint64, runs [][]uint64) []uint64 {
	return mergeLanded(a, b, runs, mergeTwoImages)
}

// MergeFunc merges sorted runs under less, with a and b as its two buffers:
// mergeLanded over MergeInto.  It is stable: equal keys keep the order of
// their runs, and within a run their own.
func MergeFunc[T any](a, b []T, runs [][]T, less func(x, y T) bool) []T {
	return mergeLanded(a, b, runs, func(out, x, y []T) { MergeInto(out, x, y, less) })
}

// mergeLanded merges sorted runs with a and b as its two buffers, each at
// least the runs' total long, into a prefix of the one its last level wrote,
// and returns it.  It is a binary merge tree of two-way merges (mergeTwo) of
// adjacent runs, so a mergeTwo that takes ties from its first run keeps equal
// keys in run order.  The runs may lie in a, as the exchange lands them: the
// first level moves every run into b — it merges just enough pairs to leave a
// power of two of runs and copies the others —, and every later level halves
// the count, ping-ponging between a and b (mergeTree); with two runs or fewer
// a is never touched and may be nil.  b must overlap neither a nor the runs.
// Empty runs are skipped, and up to 16 non-empty runs cost no allocation.
func mergeLanded[T any](a, b []T, runs [][]T, mergeTwo func(out, x, y []T)) []T {
	var stack [16][]T
	cur, total := stack[:0], 0
	for _, r := range runs {
		if len(r) > 0 {
			cur = append(cur, r)
			total += len(r)
		}
	}
	to := b[:total]
	pairs := 0
	if len(cur) > 1 {
		pairs = len(cur) - 1<<(bits.Len(uint(len(cur)-1))-1)
	}
	off := 0
	for i := range len(cur) - pairs {
		var out []T
		if i < pairs {
			x, y := cur[2*i], cur[2*i+1]
			out = to[off : off+len(x)+len(y)]
			mergeTwo(out, x, y)
		} else {
			r := cur[i+pairs]
			out = to[off : off+len(r)]
			copy(out, r)
		}
		cur[i] = out
		off += len(out)
	}
	cur = cur[:len(cur)-pairs]
	// The rest is a power of two of runs in b, and mergeTree's last level
	// writes its dst: a when the levels left are odd, b when they are even.
	switch {
	case len(cur) < 2:
	case bits.Len(uint(len(cur)-1))%2 == 1:
		mergeTree(a[:total], to, cur, mergeTwo)
		return a[:total]
	default:
		mergeTree(to, a[:total], cur, mergeTwo)
	}
	return to
}

// MergeU128 merges sorted 128-bit images from runs into dst, which must
// hold exactly the runs' total length; tmp must hold at least as many, and
// neither may overlap the runs or the other.  It is mergeLanded's merge tree,
// of branch-free two-way merges that compare (Hi, Lo) as one unsigned
// integer (mergeTwoU128), except that its first level leaves the unpaired
// runs where they lie and the levels alternate so that the last one writes
// dst.  runs must hold no empty run, and the tree overwrites its slice
// headers (never the records they point at); in exchange it allocates
// nothing at any run count.
func MergeU128(dst, tmp []xmath.U128, runs [][]xmath.U128) {
	mergeTree(dst, tmp, runs, mergeTwoU128)
}

// mergeTree runs the levels of MergeU128, and those of mergeLanded after
// its first, over the non-empty runs cur, overwriting cur's headers with the
// level outputs.
func mergeTree[T any](dst, tmp []T, cur [][]T, mergeTwo func(out, a, b []T)) {
	if len(cur) < 2 {
		gather(dst, cur)
		return
	}
	to, next := dst, tmp[:len(dst)]
	if bits.Len(uint(len(cur)-1))%2 == 0 { // an even number of levels
		to, next = next, to
	}
	for len(cur) > 1 {
		pairs := len(cur) - 1<<(bits.Len(uint(len(cur)-1))-1)
		off := 0
		for i := range pairs {
			a, b := cur[2*i], cur[2*i+1]
			out := to[off : off+len(a)+len(b)]
			mergeTwo(out, a, b)
			cur[i] = out
			off += len(out)
		}
		cur = cur[:pairs+copy(cur[pairs:], cur[2*pairs:])]
		to, next = next, to
	}
}

// mergeTwoImages merges sorted a and b into out, len(a)+len(b) long.  One
// loop takes the smaller head at the front and the larger tail at the back:
// two independent dependency chains, each step branch-free — the borrow of
// one subtraction selects the key and advances the index.  Ties go to a at
// the front and to b at the back, so the two ends take the first and the
// last keys of one merge order and never meet.  It runs min(len(a), len(b))
// steps, the most that cannot run past either input; the |len(a)-len(b)|
// keys left in the middle go through a guarded plain merge.
func mergeTwoImages(out, a, b []uint64) {
	i, j := 0, 0             // the heads
	ia, jb := len(a), len(b) // one past the tails
	for range min(len(a), len(b)) {
		x, y := a[i], b[j]
		_, lt := bits.Sub64(y, x, 0) // b's head is smaller: it goes first
		out[i+j] = x ^ (x^y)&-lt
		i += int(lt ^ 1)
		j += int(lt)
		x, y = a[ia-1], b[jb-1]
		_, gt := bits.Sub64(y, x, 0) // a's tail is larger: it goes last
		out[ia+jb-1] = y ^ (x^y)&-gt
		ia -= int(gt)
		jb -= int(gt ^ 1)
	}
	a, b, out = a[i:ia], b[j:jb], out[i+j:ia+jb]
	i, j = 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			out[i+j] = b[j]
			j++
		} else {
			out[i+j] = a[i]
			i++
		}
	}
	copy(out[i+j:], a[i:])
	copy(out[i+j:], b[j:])
}

// mergeTwoU128 is mergeTwoImages over 128-bit images: the comparison is the
// borrow of a two-word subtraction, and both words move under its mask.
// Twice the words would spill the loop's indices to the stack, so it keeps
// only the output positions and a's indices live and derives b's: step t
// writes out[t] at the front and out[n-1-t] at the back.
func mergeTwoU128(out, a, b []xmath.U128) {
	n := len(a) + len(b)
	out = out[:n]
	i, ia := 0, len(a) // a's head, one past a's tail
	steps := min(len(a), len(b))
	for t := range steps {
		x, y := a[i], b[t-i]
		_, lt := bits.Sub64(y.Lo, x.Lo, 0)
		_, lt = bits.Sub64(y.Hi, x.Hi, lt) // b's head is smaller: it goes first
		m := -lt
		out[t] = xmath.U128{Hi: x.Hi ^ (x.Hi^y.Hi)&m, Lo: x.Lo ^ (x.Lo^y.Lo)&m}
		i += int(lt ^ 1)
		e := n - 1 - t
		x, y = a[ia-1], b[e-ia]
		_, gt := bits.Sub64(y.Lo, x.Lo, 0)
		_, gt = bits.Sub64(y.Hi, x.Hi, gt) // a's tail is larger: it goes last
		m = -gt
		out[e] = xmath.U128{Hi: y.Hi ^ (x.Hi^y.Hi)&m, Lo: y.Lo ^ (x.Lo^y.Lo)&m}
		ia -= int(gt)
	}
	j, jb := steps-i, n-steps-ia
	a, b, out = a[i:ia], b[j:jb], out[steps:n-steps]
	i, j = 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Less(a[i]) {
			out[i+j] = b[j]
			j++
		} else {
			out[i+j] = a[i]
			i++
		}
	}
	copy(out[i+j:], a[i:])
	copy(out[i+j:], b[j:])
}
