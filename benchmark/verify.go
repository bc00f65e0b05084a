package main

import "fmt"

// checksum is an order-independent digest of a key multiset: the element
// count plus the wrapping sum and the xor of the 64-bit key images.  Sorting
// permutes keys, so input and output digests must be equal; the sum catches
// a dropped or duplicated key (xor alone is blind to a key duplicated over a
// dropped twin), the xor catches compensating sum errors, and the count
// catches a dropped zero.  A swap of two keys leaves the multiset intact and
// is caught by the sortedness check instead.
type checksum struct {
	N   int
	Sum uint64
	Xor uint64
}

func (c *checksum) add(img uint64) {
	c.N++
	c.Sum += img
	c.Xor ^= img
}

func (c checksum) merge(o checksum) checksum {
	return checksum{N: c.N + o.N, Sum: c.Sum + o.Sum, Xor: c.Xor ^ o.Xor}
}

// checksumOf digests keys through their image function.
func checksumOf[K any](ks []K, image func(K) uint64) checksum {
	var c checksum
	for _, k := range ks {
		c.add(image(k))
	}
	return c
}

// verifySorted checks one sorted sequence against the digest of its input:
// ascending by image order, same count, same multiset digest.
func verifySorted[K any](ks []K, image func(K) uint64, want checksum) error {
	var got checksum
	var prev uint64
	for i, k := range ks {
		v := image(k)
		if i > 0 && v < prev {
			return fmt.Errorf("not sorted at index %d: image %d after %d", i, v, prev)
		}
		got.add(v)
		prev = v
	}
	return matchChecksum(got, want)
}

func matchChecksum(got, want checksum) error {
	if got.N != want.N {
		return fmt.Errorf("element count %d, want %d", got.N, want.N)
	}
	if got.Sum != want.Sum || got.Xor != want.Xor {
		return fmt.Errorf("multiset checksum mismatch: sum %#x xor %#x, want sum %#x xor %#x",
			got.Sum, got.Xor, want.Sum, want.Xor)
	}
	return nil
}
