package core

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/store"
	"dhsort/internal/xmath"
)

// Superstep checkpointing — the resilience half of the fault plane
// (internal/fault).  At each superstep boundary a rank snapshots the state
// the next superstep depends on (the locally sorted partition, the splitter
// vector, the exchange cut offsets), checksums it, and keeps two audited
// copies: the primary, its own, and the replica, mirrored to its ring
// successor, which audits it for superstep agreement, adopts it if the
// predecessor dies permanently (Config.Recovery == "shrink"), or serves it
// back if the predecessor's primary rots.  A copy's sorted section follows
// the partition's backing: a resident partition (any key type) is
// deep-copied in memory; a spilled one — an extPartition, lossless by
// construction — cannot change before the exchange, so its primary is the
// partition run itself and its replica the one run ckpt/w<world>.r of the
// spill store, sealed at the epoch's first boundary by the same pass that
// audits the partition run; the ranks share the store whenever shrink
// recovery may need the runs.  The splitters and cuts stay resident in both
// copies either way.
//
// A rank the schedule crashes at a boundary loses its live state, pays the
// respawn + restore cost on the virtual clock, and re-enters from the first
// copy that passes its audit, failing with ErrCheckpointCorrupt when neither
// does.  A rank the schedule kills (die=RANK@STEP) leaves for good after
// mirroring.  Checkpointing only runs in fault-injecting worlds, so
// fault-free runs are byte-identical to before.

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

// ErrCheckpointCorrupt is the typed checkpoint-integrity error: every copy
// of a snapshot that a restore or an adoption could reach failed its
// checksum audit.  Callers receive it through Sort's error return.
var ErrCheckpointCorrupt = errors.New("core: checkpoint corrupt")

// ErrShardLost is returned when shrink recovery cannot be loss-free: a dead
// rank's ring successor — the holder of its mirrored shard — died at the
// same boundary, so the victim's data has no surviving replica.
var ErrShardLost = errors.New("core: checkpoint mirror lost: a rank and its ring successor died at the same boundary")

// ckptShard is one copy of a boundary snapshot, as the ring carries the
// replica: the audit descriptor plus deep copies of the state, so the
// replica stays valid after the owner's buffers are reused (or the owner is
// gone).  Sorted is nil when the partition is spilled: the copy's sorted
// section is then a store run (checkpoint.run).
type ckptShard[K any] struct {
	Desc      ckptDesc
	Sorted    []K
	Splitters []K
	Cuts      []int
}

// ckptDesc is the audit descriptor of a snapshot, carried by both copies.
type ckptDesc struct {
	Step  int32
	Elems int64
	Sum   uint64
}

// checkpoint is one rank's snapshot store: the two copies of the last
// completed superstep's state and the ring predecessor's replica.  The zero
// value is ready; a nil pointer (fault-free run) makes boundary a no-op.
type checkpoint[K any] struct {
	// copies[0] is the primary, copies[1] the replica mirrored to the ring
	// successor (the successor holds this very memory).
	copies [2]ckptShard[K]
	// st holds the copies' sorted sections as the runs run(world, i) when
	// the partition is spilled; nil when it is resident.
	st    store.Store
	world int

	// mirror is the ring predecessor's replica, adopted by the shrink
	// recovery when the predecessor dies; its step is 0 until the first
	// boundary.
	mirror      ckptShard[K]
	mirrorFrom  int // predecessor's communicator rank at mirror time
	mirrorWorld int // predecessor's world rank at mirror time

	// died is set as this rank leaves for good at a boundary: its runs are
	// then its adopter's to remove.
	died bool
}

// boundary runs the checkpoint protocol at superstep boundary `step` for
// the state (the sorted partition, *splitters, *cuts) of a communicator of
// P > 1 ranks.  The partition is resident in *sorted (part is nil) or a
// sealed run of the spill store (part).  In fault-free worlds it does
// nothing.  Under fault injection it (1) snapshots and checksums the state,
// seals the replica run at the epoch's first boundary when spilled, and
// prices the checkpoint write,
// (2) mirrors the replica to the next ring neighbour and audits the
// predecessor's, (3) applies a scheduled permanent death — the rank mirrors
// first, then leaves for good —, (4) applies a scheduled stall, and
// (5) applies a scheduled crash: wipes the live state, pays respawn +
// restore, and re-installs the first intact copy (restore).
func (ck *checkpoint[K]) boundary(c *comm.Comm, ops keys.Ops[K], cfg Config, step int, sorted *[]K, part *extPartition[K], splitters *[]K, cuts *[]int) error {
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

	// (1) Snapshot and checksum.  A spilled partition is checksummed by
	// streaming its run, which audits the run's own digest on the way; at the
	// epoch's first boundary (no step yet) the same pass seals the replica
	// run, so a partition run that rots later cannot poison it.  The write is
	// priced at the scaled volume, like the data it protects, at every
	// boundary.
	primary := ckptShard[K]{
		Desc:      ckptDesc{Step: int32(step)},
		Splitters: snapshot(ck.copies[0].Splitters, splitters),
		Cuts:      snapshot(ck.copies[0].Cuts, cuts),
	}
	if part != nil {
		ck.st, ck.world = part.st, c.WorldRank()
		primary.Desc.Elems = part.count
	} else {
		primary.Sorted = snapshot(ck.copies[0].Sorted, sorted)
		primary.Desc.Elems = int64(len(primary.Sorted))
	}
	run := ck.run(ck.world, 0)
	var sum uint64
	var err error
	if part != nil && ck.copies[0].Desc.Step == 0 {
		err = store.Seal(ck.st, ck.run(ck.world, 1), func(w store.Writer) (err error) {
			sum, err = checksum(ops, primary, ck.st, run, w.Append)
			return err
		})
	} else {
		sum, err = checksum(ops, primary, ck.st, run, nil)
	}
	if err != nil {
		if errors.Is(err, store.ErrCorrupt) {
			err = fmt.Errorf("%w: %w", ErrCheckpointCorrupt, err)
		}
		return fmt.Errorf("core: rank %d checkpointing partition run %q at step %d: %w", c.Rank(), run, step, err)
	}
	primary.Desc.Sum = sum
	ck.copies = [2]ckptShard[K]{primary, {
		Desc:      primary.Desc,
		Sorted:    slices.Clone(primary.Sorted),
		Splitters: slices.Clone(primary.Splitters),
		Cuts:      slices.Clone(primary.Cuts),
	}}
	velems := cfg.Scaled(int(primary.Desc.Elems))
	vbytes := int64(cfg.Scaled(int(shardBytes(ops, primary))))
	if model != nil {
		c.Clock().Advance(model.ScanCost(velems) + model.CheckpointCost(int(vbytes)))
	}
	rec.AddCheckpoint(vbytes)

	// (2) Snapshot-mirror ring: ship the replica to the next neighbour and
	// hold the predecessor's, auditing superstep agreement on the way.
	// Divergence means the checkpoint schedule itself broke — abort loudly
	// rather than sort wrong data.  The message is priced at the snapshot's
	// scaled volume (the struct's nominal wire size is inflated to vbytes),
	// whether the replica's sorted section travels in it or sits in a run.
	next, prev := (c.Rank()+1)%p, (c.Rank()+p-1)%p
	comm.SendProtocol(c, next, comm.FaultControlTag, []ckptShard[K]{ck.copies[1]}, shardByteScale[K](vbytes))
	got := comm.RecvProtocol[ckptShard[K]](c, prev, comm.FaultControlTag)
	if len(got) != 1 || int(got[0].Desc.Step) != step {
		panic(fmt.Sprintf("core: checkpoint divergence at rank %d: boundary %d but predecessor %d mirrored %+v", c.Rank(), step, prev, got))
	}
	ck.mirror, ck.mirrorFrom, ck.mirrorWorld = got[0], prev, c.WorldRankOf(prev)

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
				ck.died = true
				c.Die()
			}
			if firstVictim < 0 {
				firstVictim = r
			}
		}
		if firstVictim >= 0 {
			return c.DeadRankFailure(c.WorldRankOf(firstVictim), step,
				fmt.Sprintf("scheduled death of rank %d detected at the step-%d boundary", firstVictim, step))
		}
	}

	// (4) Scheduled stall: the rank freezes for the scheduled time.  Its
	// neighbours keep running; they only feel it through later arrivals.
	if d := inj.StallAt(c.WorldRank(), step); d > 0 {
		c.Clock().Advance(d)
		rec.AddStall(d)
	}

	// (5) Scheduled crash: live state dies with the rank; the respawned
	// process restores the snapshot and re-enters this superstep.
	if inj.CrashAt(c.WorldRank(), step) {
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
		if err := ck.restore(c, ops, cfg, sorted, part, splitters, cuts); err != nil {
			return err
		}
		d := c.Clock().Now() - start
		rec.AddRecovery(d)
	}
	return nil
}

// restore re-installs the snapshot into the live state from the first of
// its copies — primary, then replica — that passes its audit against the
// snapshot's checksum: slices are copied back; a spilled partition keeps its
// run, which a failed audit has re-sealed from the replica under the same
// name.  Falling back to the replica is priced as the remote fetch it
// models; when both copies fail, restore gives up with ErrCheckpointCorrupt.
func (ck *checkpoint[K]) restore(c *comm.Comm, ops keys.Ops[K], cfg Config, sorted *[]K, part *extPartition[K], splitters *[]K, cuts *[]int) error {
	want := ck.copies[0].Desc
	for i, s := range ck.copies {
		run := ck.run(ck.world, i)
		if sum, err := checksum(ops, s, ck.st, run, nil); err != nil || sum != want.Sum {
			continue
		}
		if i > 0 {
			if part != nil {
				if err := copyRun(ck.st, run, part.name); err != nil {
					return fmt.Errorf("core: rank %d re-sealing its partition run from the replica: %w", c.Rank(), err)
				}
			}
			if m := c.Model(); m != nil {
				c.Clock().Advance(m.RestoreCost(cfg.Scaled(int(shardBytes(ops, s)))))
			}
		}
		install(splitters, s.Splitters)
		install(cuts, s.Cuts)
		if part == nil {
			install(sorted, s.Sorted)
		}
		return nil
	}
	return fmt.Errorf("%w: rank %d at step %d (primary and replica both failed the audit)", ErrCheckpointCorrupt, c.Rank(), want.Step)
}

// adoptable reports whether this rank holds a mirror of commRank's snapshot
// on the failed communicator (the predecessor at mirror time).
func (ck *checkpoint[K]) adoptable(commRank int) bool {
	return ck != nil && ck.mirror.Desc.Step > 0 && ck.mirrorFrom == commRank
}

// adopt returns the dead ring predecessor's sorted partition for the shrink
// recovery: the first of its surviving copies that passes the audit against
// the mirrored descriptor — the mirror itself when the partition was
// resident (the primary died with the victim); the victim's partition run,
// then its replica run when it was spilled, audited with the mirrored
// splitters and cuts.  Both of the victim's runs are removed once adopted:
// a dying rank leaves them for this.
func (ck *checkpoint[K]) adopt(ops keys.Ops[K]) ([]K, error) {
	m := ck.mirror
	surviving := 1
	if ck.st != nil {
		surviving = 2
	}
	for i := 0; i < surviving; i++ {
		sorted := m.Sorted // nil when spilled: decoded as the run is audited
		sum, err := checksum(ops, m, ck.st, ck.run(ck.mirrorWorld, i), func(imgs []xmath.U128) error {
			for _, b := range imgs {
				sorted = append(sorted, ops.FromBits(b))
			}
			return nil
		})
		if err == nil && sum == m.Desc.Sum {
			if ck.st != nil {
				err = dropRuns(ck.st, []store.Span{{Name: partRun(ck.mirrorWorld)}, {Name: replicaRun(ck.mirrorWorld)}})
			}
			return sorted, err
		}
	}
	return nil, fmt.Errorf("%w: world rank %d at step %d (no surviving copy passed the adoption audit)", ErrCheckpointCorrupt, ck.mirrorWorld, m.Desc.Step)
}

// release removes this rank's replica run once its epoch is over (sortSteps,
// with the partition run).  Runs that can outlive the sort are a dead rank's
// that no survivor adopts (a death under respawn recovery, or two
// ring-adjacent deaths).
func (ck *checkpoint[K]) release() error {
	if ck == nil || ck.st == nil {
		return nil
	}
	return ck.st.Remove(ck.run(ck.world, 1))
}

// run names the store run holding the sorted section of world's copy i:
// its partition run for the primary (i = 0), its replica run for the
// replica; "" when the partition is resident.
func (ck *checkpoint[K]) run(world, i int) string {
	switch {
	case ck.st == nil:
		return ""
	case i == 0:
		return partRun(world)
	}
	return replicaRun(world)
}

// replicaRun names world rank w's checkpoint replica run, one per epoch.
func replicaRun(w int) string { return fmt.Sprintf("ckpt/w%d.r", w) }

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

// shardBytes is a snapshot copy's stored volume: the key images plus the
// cut offsets, whichever backing holds the sorted section.
func shardBytes[K any](ops keys.Ops[K], s ckptShard[K]) int {
	return (int(s.Desc.Elems)+len(s.Splitters))*ops.Bytes() + len(s.Cuts)*8
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

// install re-installs a copy's state into the live state.
func install[T any](dst *[]T, src []T) {
	if dst != nil {
		*dst = append([]T(nil), src...)
	}
}

// checksum folds one copy of a snapshot through FNV-1a: the header (step,
// element count, splitter count, cut count), the sorted section's key
// images, the splitter images and the cuts — the 128-bit embedding gives
// every key type a stable fixed-width image.  The copy is s with its sorted
// section in s.Sorted, or — when run is named — in that sealed run of st,
// streamed so the run's own record digest is audited on the way; tee, when
// not nil, sees each block of the run's records as it is folded.
func checksum[K any](ops keys.Ops[K], s ckptShard[K], st store.Store, run string, tee func([]xmath.U128) error) (uint64, error) {
	f := fnvFold{h: 14695981039346656037}
	if run == "" {
		f.header(s.Desc.Step, int64(len(s.Sorted)), len(s.Splitters), len(s.Cuts))
		for _, k := range s.Sorted {
			f.image(ops.ToBits(k))
		}
	} else {
		count, err := st.Len(run)
		if err != nil {
			return 0, err
		}
		f.header(s.Desc.Step, count, len(s.Splitters), len(s.Cuts))
		err = eachBlock(st, run, func(imgs []xmath.U128) error {
			for _, b := range imgs {
				f.image(b)
			}
			if tee != nil {
				return tee(imgs)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	for _, k := range s.Splitters {
		f.image(ops.ToBits(k))
	}
	for _, c := range s.Cuts {
		f.word(uint64(int64(c)))
	}
	return f.h, nil
}

// fnvFold is the FNV-1a state of checksum.
type fnvFold struct{ h uint64 }

func (f *fnvFold) word(v uint64) {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		f.h ^= (v >> (8 * i)) & 0xff
		f.h *= prime
	}
}

func (f *fnvFold) image(b xmath.U128) {
	f.word(b.Hi)
	f.word(b.Lo)
}

func (f *fnvFold) header(step int32, elems int64, nsplit, ncuts int) {
	f.word(uint64(step))
	f.word(uint64(elems))
	f.word(uint64(nsplit))
	f.word(uint64(ncuts))
}

// eachBlock streams the sealed run name through fn a block at a time.
func eachBlock(st store.Store, name string, fn func([]xmath.U128) error) error {
	r, err := st.Open(name)
	if err != nil {
		return err
	}
	defer r.Close()
	buf := make([]xmath.U128, spillBlock)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if ferr := fn(buf[:n]); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// copyRun seals a copy of the run src as dst.
func copyRun(st store.Store, src, dst string) error {
	return store.Seal(st, dst, func(w store.Writer) error { return eachBlock(st, src, w.Append) })
}
