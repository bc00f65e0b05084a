package server

import (
	"dhsort/internal/keys"
	"dhsort/internal/xmath"
)

// batchItem tags a key with the index of the job it belongs to, so several
// small jobs can ride one shared world run: a single distributed sort of
// the union, ordered by (Job, Key), leaves every job's keys contiguous and
// globally sorted within its group.  Splitting the per-rank outputs by Job
// in rank order then yields each job's sorted sequence — the amortized
// superstep trick of the batching layer.
type batchItem struct {
	Job uint16
	Key uint64
}

// batchOps orders batchItems lexicographically by (Job, Key) and embeds
// them monotonically into the splitter bit space with Job in the most
// significant bits, so histogram partitioning respects the grouping.  The
// 16-bit job index and 64-bit key pack exactly into the top 80 bits of the
// 128-bit splitter space.
type batchOps struct{}

func (batchOps) Less(a, b batchItem) bool {
	if a.Job != b.Job {
		return a.Job < b.Job
	}
	return a.Key < b.Key
}

func (batchOps) ToBits(v batchItem) xmath.U128 {
	return xmath.U128{
		Hi: uint64(v.Job)<<48 | v.Key>>16,
		Lo: (v.Key & 0xffff) << 48,
	}
}

func (batchOps) FromBits(u xmath.U128) batchItem {
	return batchItem{
		Job: uint16(u.Hi >> 48),
		Key: u.Hi<<16 | u.Lo>>48,
	}
}

func (batchOps) Bytes() int { return 10 }

// RadixKey returns the job index, the primary stage of the two-stage radix
// kernel; RadixSuffix returns the key, its secondary stage.  Both LSD stages
// are stable, so sorting by the key and then by the job index orders by
// (Job, Key) — the Triple scheme (keys.RadixSuffixOps) over a 2-byte primary.
func (batchOps) RadixKey(v batchItem) (uint64, int) { return uint64(v.Job), 2 }

func (batchOps) RadixSuffix(v batchItem) (uint64, int) { return v.Key, 8 }

var _ keys.Ops[batchItem] = batchOps{}

// splitByJob partitions one rank's sorted batch output into per-job key
// slices (indexed by batch job index).  The input is (Job, Key)-sorted, so
// each job's run is contiguous.
func splitByJob(out []batchItem, jobs int) [][]uint64 {
	per := make([][]uint64, jobs)
	for i := 0; i < len(out); {
		j := i
		id := out[i].Job
		for j < len(out) && out[j].Job == id {
			j++
		}
		ks := make([]uint64, 0, j-i)
		for _, it := range out[i:j] {
			ks = append(ks, it.Key)
		}
		per[id] = append(per[id], ks...)
		i = j
	}
	return per
}
