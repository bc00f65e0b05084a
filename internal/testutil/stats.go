// Package testutil holds helpers shared by the tests of several packages.
// Only tests import it, so no command or benchmark binary links it.
package testutil

import (
	"fmt"
	"hash/fnv"

	"dhsort/internal/comm"
	"dhsort/internal/simnet"
)

// StatsDigest folds every Stats, in order, through FNV-1a.  Each one is
// written in a fixed order: the per-link-class messages, bytes, puts, put
// bytes and notifies, one array per counter, then the fault counters — the
// layout the pinned digests were measured in.
func StatsDigest(sts ...comm.Stats) uint64 {
	h := fnv.New64a()
	for _, st := range sts {
		var msgs, bytes, puts, putBytes, notifies [simnet.NumLinkClasses]int64
		for lc, l := range st.Links {
			msgs[lc], bytes[lc], puts[lc], putBytes[lc], notifies[lc] = l.Messages, l.Bytes, l.Puts, l.PutBytes, l.Notifies
		}
		f := st.Fault
		fmt.Fprintf(h, "{%v %v %v %v %v {%d %d %d %d %d %d %d}}", msgs, bytes, puts, putBytes, notifies,
			f.Drops, f.Dups, f.Delays, f.Reorders, f.Retries, f.RetryNS, f.Dedup)
	}
	return h.Sum64()
}
