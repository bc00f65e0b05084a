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

// Image is the two-stage radix image: the job index is the primary stage
// and the key its suffix.  Both LSD stages are stable, so sorting by the key
// and then by the job index orders by (Job, Key) — the Triple scheme over a
// 2-byte primary.
func (batchOps) Image() keys.Image[batchItem] {
	return keys.Image[batchItem]{Width: 2, Suffix: func(v batchItem) uint64 { return v.Key }, SuffixWidth: 8,
		Of: func(v batchItem) uint64 { return uint64(v.Job) }}
}

var _ keys.Ops[batchItem] = batchOps{}

// batchInput returns rank's share of every job of batch, each key tagged
// with its job's index in the batch.
func batchInput(batch []*job, rank int) ([]batchItem, error) {
	var local []batchItem
	for i, j := range batch {
		ks, err := localInput(j.spec, rank)
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			local = append(local, batchItem{Job: uint16(i), Key: k})
		}
	}
	return local, nil
}

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
