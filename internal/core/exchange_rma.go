package core

import (
	"dhsort/internal/comm"
	"dhsort/internal/rma"
)

// rmaPutRounds is the one-sided data exchange (comm.ExchangeRMAPut) as a
// schedule: every rank puts its segments directly into symmetric rma windows
// at exscan-computed target offsets, and each round's partner segment is
// pushed as its put-notification arrives — the paper's §VI overlap with the
// DASH/DART put+notify substrate instead of two-sided sendrecv rounds.
//
// The offsets come from a one-sided bootstrap rather than a two-sided
// collective: a P×P counts window of static capacity receives every rank's
// send-count row, after which each rank locally computes the exclusive
// column prefix (the exscan) that places origin r's run at
// sum_{s<r} count(s→d) in destination d's window, plus the column sum that
// sizes its own data window.  Under PGAS pricing this costs P-1 tiny
// memcpys instead of log-P latency-bound rounds, which is exactly why the
// put path wins intra-node.
//
// Determinism: the puts follow the 1-factor schedule (oneFactorExchange), and
// each round is put → notify wait → push, so the virtual clock's
// Arrive/Advance interleaving — and with it the emitted metrics — is
// byte-identical across runs.  No trailing fence is needed: each origin puts
// exactly once per target and every put is consumed through its
// notification, which already orders the target's reads after the origin's
// writes.  Received segments are views of the window: the zero-copy
// consumption a shared-memory window affords.
type rmaPutRounds[K any] struct{}

func (rmaPutRounds[K]) deliver(c *comm.Comm, src Source[K], cuts []int, cfg Config, sink consumer[K]) error {
	cfg.Recorder.SetExchangeAlg(comm.ExchangeRMAPut.String())
	p, me := c.Size(), c.Rank()

	// Counts bootstrap: row r of the matrix is rank r's send counts.
	cw := rma.New[int64](c, comm.RMACountsTag, p*p)
	row := cw.Local()[me*p : (me+1)*p]
	for d := range row {
		row[d] = int64(cuts[d+1] - cuts[d])
	}
	for i := 1; i < p; i++ {
		cw.PutNotify((me+i)%p, me*p, row, 0)
	}
	for s := 0; s < p; s++ {
		if s != me {
			cw.WaitNotify(s)
		}
	}
	counts := cw.Local()

	// Column me sums to my window size; the exclusive prefix of column d is
	// where my run starts in d's window.
	recvTotal := 0
	myOff := make([]int, p)
	for s := 0; s < p; s++ {
		recvTotal += int(counts[s*p+me])
		if s < me {
			for d := range myOff {
				myOff[d] += int(counts[s*p+d])
			}
		}
	}
	if model := c.Model(); model != nil {
		c.Clock().Advance(model.ScanCost(p * p))
	}

	dw := rma.New[K](c, comm.RMADataTag, recvTotal)
	return oneFactorExchange(c, segmentsOf(src, cuts), func(r, partner int, seg []K) []K {
		dw.PutNotifyScaled(partner, myOff[partner], seg, r, cfg.Scale())
		n := dw.WaitNotify(partner)
		return dw.Local()[n.Off : n.Off+n.N]
	}, sink.push)
}
