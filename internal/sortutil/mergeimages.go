package sortutil

import "math/bits"

// MergeImages merges sorted uint64 images — keys that are their own image —
// from runs into dst, which must hold exactly the runs' total length; tmp
// must hold at least as many, and neither may overlap the runs or the other.
// It is a binary merge tree of branch-free two-way merges (mergeTwoImages):
// the first level merges just enough pairs to leave a power of two of runs,
// the rest staying where they lie, and every later level halves the count.
// The levels ping-pong between dst and tmp so that the last one writes dst.
// The runs are only read, empty ones are skipped, and up to 16 non-empty
// runs cost no allocation.
func MergeImages(dst, tmp []uint64, runs [][]uint64) {
	var stack [16][]uint64
	cur := stack[:0]
	for _, r := range runs {
		if len(r) > 0 {
			cur = append(cur, r)
		}
	}
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
			mergeTwoImages(out, a, b)
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
