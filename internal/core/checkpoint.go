package core

import (
	"errors"
	"fmt"
	"reflect"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/store"
)

// Superstep checkpointing — the resilience half of the fault plane
// (internal/fault).  At each superstep boundary a rank snapshots the state
// the next superstep depends on (the locally sorted partition, the splitter
// vector, the exchange cut offsets), checksums it, and mirrors the full
// snapshot around a ring: the successor holds a replica it can audit for
// superstep agreement, adopt if the predecessor dies permanently
// (Config.Recovery == "shrink"), or serve back if the predecessor's own
// snapshot rots.  A rank the schedule crashes at that boundary loses its
// live state, pays the respawn + restore cost on the virtual clock,
// re-enters from the snapshot, and verifies the checksum before continuing;
// a corrupt snapshot falls back to the ring mirror before failing with
// ErrCheckpointCorrupt.  A rank the schedule kills (die=RANK@STEP) leaves
// for good after mirroring.  Checkpointing only runs in fault-injecting
// worlds, so fault-free runs are byte-identical to before.

// The fault plane's superstep schedule, shared by core and hss: crash/stall
// coordinates in fault.Plan address these boundary indices.
const (
	// StepLocalSort is the boundary after the Local Sort superstep.
	StepLocalSort = 1
	// StepSplitting is the boundary after splitter determination.
	StepSplitting = 2
	// StepCuts is the boundary after the permutation-matrix construction,
	// immediately before the data exchange.
	StepCuts = 3
)

// ErrCheckpointCorrupt is the typed checkpoint-integrity error: a restored
// snapshot failed its checksum audit and the ring mirror could not cover
// for it either.  It replaces the former checksum panic; callers receive it
// through Sort's error return.
var ErrCheckpointCorrupt = errors.New("core: checkpoint corrupt")

// ErrShardLost is returned when shrink recovery cannot be loss-free: a dead
// rank's ring successor — the holder of its mirrored shard — died at the
// same boundary, so the victim's data has no surviving replica.
var ErrShardLost = errors.New("core: checkpoint mirror lost: a rank and its ring successor died at the same boundary")

// ckptShard is the full snapshot mirrored to the ring successor at every
// boundary: the audit descriptor plus deep copies of the state, so the
// replica stays valid after the owner's buffers are reused (or the owner is
// gone).
type ckptShard[K any] struct {
	Desc      ckptDesc
	Sorted    []K
	Splitters []K
	Cuts      []int
}

// checkpoint is one rank's snapshot store: the last completed superstep's
// state, its checksum, and the ring-mirror replicas.  The zero value is
// ready; a nil pointer (fault-free run) makes boundary a no-op.
type checkpoint[K any] struct {
	step      int
	sorted    []K
	splitters []K
	cuts      []int
	sum       uint64

	// sent is the deep copy of this rank's latest snapshot as mirrored to
	// the ring successor — retained because it doubles as the local image
	// of the remote replica when the primary snapshot fails its checksum.
	sent      ckptShard[K]
	sentValid bool

	// mirror is the ring predecessor's latest mirrored snapshot, adopted by
	// the shrink recovery when the predecessor dies.
	mirror      ckptShard[K]
	mirrorFrom  int // predecessor's communicator rank at mirror time
	mirrorWorld int // predecessor's world rank at mirror time
	mirrorValid bool

	// Durable mode (a shared store is configured and the key embedding is
	// lossless): shards persist as primary + replica store runs, the ring
	// message carries only the descriptor, and restore/adoption read the
	// store back instead of resident deep copies.
	durable bool
	st      store.Store
	ops     keys.Ops[K] // retained for decode in adopt (shrinkRecover has no ops)
	world   int         // this rank's world rank (shard run naming)
	elems   int64       // snapshot sorted-element count
}

// ckptDesc is the audit descriptor carried with every mirrored snapshot:
// enough for a neighbour to verify superstep agreement.
type ckptDesc struct {
	Step  int32
	Elems int64
	Sum   uint64
}

// boundary runs the checkpoint protocol at superstep boundary `step` for
// the state (the sorted partition, *splitters, *cuts).  The partition is
// resident in *sorted (part is nil) or, on the external-memory path, a
// sealed run (part, in plan's store).  In fault-free worlds it does
// nothing.  Under fault injection it (1) snapshots + checksums the
// state and prices the checkpoint write, (2) mirrors the snapshot to the
// next ring neighbour and audits the predecessor's, (3) applies a scheduled
// permanent death — the rank mirrors first, then leaves for good —,
// (4) applies a scheduled stall, and (5) applies a scheduled crash: wipes
// the live state, pays respawn + restore, re-installs the snapshot (falling
// back to the ring mirror on checksum failure) and only then errors with
// ErrCheckpointCorrupt.  With a shared store and a lossless key embedding
// the checkpoint turns durable: shards persist as primary + replica store
// runs and the ring carries only descriptors; the collective pattern,
// payload pricing, and fault handling are otherwise identical.
func (ck *checkpoint[K]) boundary(c *comm.Comm, ops keys.Ops[K], cfg Config, step int, sorted *[]K, part *extPartition[K], plan *spillPlan[K], splitters *[]K, cuts *[]int) error {
	if ck == nil {
		return nil
	}
	inj := c.FaultInjector()
	if inj == nil {
		return nil
	}
	rec := cfg.Recorder
	model := c.Model()
	p := c.Size()

	// Durable shard storage: the spill plan's store on the external path,
	// the configured shared store on the resident path (when present).
	var durableSt store.Store
	if part != nil {
		durableSt = plan.st
	} else if keys.Lossless(ops) {
		durableSt = cfg.durableStore()
	}
	durable := durableSt != nil

	// (1) Snapshot into the checkpoint store and checksum it.  The write
	// is priced at the scaled volume, like the data it protects.  On the
	// external path the sorted partition is already a sealed run; the
	// checksum streams its images (auditing the run's own integrity on the
	// way) instead of copying it resident.
	ck.step = step
	ck.splitters = snapshot(ck.splitters, splitters)
	ck.cuts = snapshot(ck.cuts, cuts)
	if part != nil {
		ck.sorted = ck.sorted[:0]
		ck.elems = part.count
		sum, err := foldRunChecksum(durableSt, part.name, step, imagesOf(ops, ck.splitters), ck.cuts)
		if err != nil {
			return fmt.Errorf("%w: rank %d at step %d: partition run %q failed its audit at checkpoint time: %v", ErrCheckpointCorrupt, c.Rank(), step, part.name, err)
		}
		ck.sum = sum
	} else {
		ck.sorted = snapshot(ck.sorted, sorted)
		ck.elems = int64(len(ck.sorted))
		ck.sum = ck.checksum(ops)
	}
	velems := int(float64(ck.elems) * cfg.scale())
	vbytes := int64(float64(ck.bytes(ops)) * cfg.scale())
	if model != nil {
		c.Clock().Advance(model.ScanCost(velems) + model.CheckpointCost(int(vbytes)))
	}
	rec.AddCheckpoint(vbytes)

	if durable {
		ck.durable, ck.st, ck.ops, ck.world = true, durableSt, ops, c.WorldRank()
		if err := ck.writeDurableShards(ops, part); err != nil {
			return err
		}
	} else {
		ck.durable = false
	}

	// (2) Snapshot-mirror ring: ship a deep copy of the snapshot to the
	// next neighbour and hold the predecessor's, auditing superstep
	// agreement on the way.  Divergence means the checkpoint schedule
	// itself broke — abort loudly rather than sort wrong data.  The
	// message is priced at the snapshot's scaled volume (the struct's
	// nominal wire size is inflated to vbytes), durable or not: durable
	// mode ships only the descriptor, but the checkpoint traffic it models
	// is the same shard.
	if p > 1 {
		tag := c.FaultControlTag()
		next, prev := (c.Rank()+1)%p, (c.Rank()+p-1)%p
		shard := ckptShard[K]{
			Desc: ckptDesc{Step: int32(step), Elems: ck.elems, Sum: ck.sum},
		}
		if !durable {
			shard.Sorted = append([]K(nil), ck.sorted...)
			shard.Splitters = append([]K(nil), ck.splitters...)
			shard.Cuts = append([]int(nil), ck.cuts...)
		}
		scale := shardByteScale[K](vbytes)
		comm.SendProtocol(c, next, tag, []ckptShard[K]{shard}, scale)
		ck.sent, ck.sentValid = shard, !durable
		got := comm.RecvProtocol[ckptShard[K]](c, prev, tag)
		if len(got) != 1 || int(got[0].Desc.Step) != step {
			panic(fmt.Sprintf("core: checkpoint divergence at rank %d: boundary %d but predecessor %d mirrored %+v", c.Rank(), step, prev, got))
		}
		ck.mirror, ck.mirrorFrom, ck.mirrorWorld, ck.mirrorValid = got[0], prev, c.WorldRankOf(prev), true
	}

	// (3) Scheduled permanent deaths, detected synchronously.  The death
	// schedule is static, so the boundary doubles as a perfect failure
	// detector: a victim has mirrored everything it owes the survivors and
	// leaves for good (Die never returns); every survivor raises an
	// identical typed failure at an identical virtual time, rather than
	// discovering the absence asynchronously mid-collective — the lynchpin
	// of bit-reproducible recovery, since the unwind point (and hence every
	// clock) is then a function of virtual state only.  Deaths preempt any
	// stall or crash scheduled at the same boundary: the epoch is being
	// abandoned, and those faults re-fire at the redo epoch's boundaries.
	if inj.Deaths() {
		firstVictim := -1
		for r := 0; r < p; r++ {
			if !inj.DieAt(c.WorldRankOf(r), step) {
				continue
			}
			if r == c.Rank() {
				rec.AddDeath()
				rec.AddFaultSpan("inject", fmt.Sprintf("permanent death at step %d", step), 0)
				c.Die()
			}
			if firstVictim < 0 {
				firstVictim = r
			}
		}
		if firstVictim >= 0 {
			rec.AddFaultSpan("detect", fmt.Sprintf("rank %d dead at step %d boundary", firstVictim, step), 0)
			return c.DeadRankFailure(c.WorldRankOf(firstVictim), step,
				fmt.Sprintf("scheduled death of rank %d detected at the step-%d boundary", firstVictim, step))
		}
	}

	// (4) Scheduled stall: the rank freezes for the scheduled time.  Its
	// neighbours keep running; they only feel it through later arrivals.
	if d := inj.StallAt(c.WorldRank(), step); d > 0 {
		c.Clock().Advance(d)
		rec.AddStall(d)
		rec.AddFaultSpan("inject", fmt.Sprintf("stall %v at step %d", d, step), d)
	}

	// (5) Scheduled crash: live state dies with the rank; the respawned
	// process restores the snapshot and re-enters this superstep.
	if inj.CrashAt(c.WorldRank(), step) {
		rec.AddFaultSpan("inject", fmt.Sprintf("crash at step %d", step), 0)
		wipe(sorted)
		wipe(splitters)
		wipe(cuts)
		if part != nil {
			// The partition run survives on the store, but the crashed
			// process's cache and open handles do not.
			part.dropCache()
		}
		start := c.Clock().Now()
		if model != nil {
			c.Clock().Advance(model.RespawnCost() + model.RestoreCost(int(vbytes)) + model.ScanCost(velems))
		}
		var err error
		if ck.durable {
			err = ck.restoreDurable(c, ops, cfg, sorted, part, splitters, cuts)
		} else {
			err = ck.restoreFromStableStorage(c, ops, cfg, sorted, splitters, cuts)
		}
		if err != nil {
			return err
		}
		d := c.Clock().Now() - start
		rec.AddRecovery(d)
		rec.AddFaultSpan("recover", fmt.Sprintf("restored step %d (%d elems)", step, ck.elems), d)
	}
	return nil
}

// restoreFromStableStorage re-installs the snapshot into the live state and
// audits its checksum.  A corrupt primary falls back to the ring mirror:
// the successor holds a bit-identical replica of this rank's snapshot, so
// the restore is re-run from the retained send image, priced as the remote
// fetch it models.  Only when that replica fails the audit too does the
// restore give up, with ErrCheckpointCorrupt.
func (ck *checkpoint[K]) restoreFromStableStorage(c *comm.Comm, ops keys.Ops[K], cfg Config, sorted, splitters *[]K, cuts *[]int) error {
	restore(sorted, ck.sorted)
	restore(splitters, ck.splitters)
	restore(cuts, ck.cuts)
	if ck.checksum(ops) == ck.sum {
		return nil
	}
	rec := cfg.Recorder
	rec.AddFaultSpan("detect", fmt.Sprintf("checkpoint checksum mismatch at step %d", ck.step), 0)
	if ck.sentValid && shardChecksum(ops, ck.sent) == ck.sum {
		// The replica at the ring successor is intact: fetch it back.
		// Its content is by construction the retained send image, so the
		// simulator restores from that and prices the fetch.
		if m := c.Model(); m != nil {
			vbytes := int(float64(shardBytes(ops, ck.sent)) * cfg.scale())
			c.Clock().Advance(m.RestoreCost(vbytes))
		}
		ck.sorted = append(ck.sorted[:0], ck.sent.Sorted...)
		ck.splitters = append(ck.splitters[:0], ck.sent.Splitters...)
		ck.cuts = append(ck.cuts[:0], ck.sent.Cuts...)
		restore(sorted, ck.sorted)
		restore(splitters, ck.splitters)
		restore(cuts, ck.cuts)
		rec.AddFaultSpan("recover", fmt.Sprintf("restored step %d from the ring mirror", ck.step), 0)
		return nil
	}
	return fmt.Errorf("%w: rank %d at step %d (primary and ring mirror both failed the audit)", ErrCheckpointCorrupt, c.Rank(), ck.step)
}

// adoptable reports whether this rank holds an intact mirror of commRank's
// snapshot on the failed communicator (the predecessor at mirror time).
func (ck *checkpoint[K]) adoptable(commRank int) bool {
	return ck != nil && ck.mirrorValid && ck.mirrorFrom == commRank
}

// shardByteScale inflates a one-element ckptShard message to the snapshot's
// scaled byte volume (the struct's nominal wire size is just slice
// headers plus the descriptor).
func shardByteScale[K any](vbytes int64) float64 {
	structBytes := int64(reflect.TypeOf(ckptShard[K]{}).Size())
	if structBytes <= 0 || vbytes <= 0 {
		return 1
	}
	s := float64(vbytes) / float64(structBytes)
	if s < 1 {
		return 1
	}
	return s
}

// snapshot copies *src into dst's storage (reused across boundaries).
func snapshot[T any](dst []T, src *[]T) []T {
	if src == nil {
		return dst[:0]
	}
	return append(dst[:0], *src...)
}

// wipe models the loss of a crashed rank's volatile memory.
func wipe[T any](s *[]T) {
	if s != nil {
		*s = nil
	}
}

// restore re-installs a snapshot into the live state.
func restore[T any](dst *[]T, src []T) {
	if dst != nil {
		*dst = append([]T(nil), src...)
	}
}

// bytes is the snapshot's stored volume: the key images plus the cut
// offsets.  ck.elems covers both backings (resident slice or sealed run).
func (ck *checkpoint[K]) bytes(ops keys.Ops[K]) int {
	return (int(ck.elems)+len(ck.splitters))*ops.Bytes() + len(ck.cuts)*8
}

// shardBytes is bytes for a mirrored shard.
func shardBytes[K any](ops keys.Ops[K], s ckptShard[K]) int {
	return (len(s.Sorted)+len(s.Splitters))*ops.Bytes() + len(s.Cuts)*8
}

// checksum folds the snapshot's key images and cuts through FNV-1a; the
// 128-bit embedding gives every key type a stable fixed-width image.
func (ck *checkpoint[K]) checksum(ops keys.Ops[K]) uint64 {
	return foldChecksum(ops, ck.step, ck.sorted, ck.splitters, ck.cuts)
}

// shardChecksum is checksum over a mirrored shard.
func shardChecksum[K any](ops keys.Ops[K], s ckptShard[K]) uint64 {
	return foldChecksum(ops, int(s.Desc.Step), s.Sorted, s.Splitters, s.Cuts)
}

func foldChecksum[K any](ops keys.Ops[K], step int, sorted, splitters []K, cuts []int) uint64 {
	f := newFold()
	f.header(step, int64(len(sorted)), len(splitters), len(cuts))
	for _, k := range sorted {
		f.image(ops.ToBits(k))
	}
	f.trailer(imagesOf(ops, splitters), cuts)
	return f.h
}
