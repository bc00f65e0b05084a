package core

import (
	"fmt"
	"io"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/store"
	"dhsort/internal/xmath"
)

// Durable checkpoint shards.  When a shared store is configured (Config.Store
// or Config.SpillDir) and the key embedding is lossless, every boundary seals
// each rank's snapshot as primary + replica store runs instead of mirroring a
// resident deep copy: the ring message shrinks to the audit descriptor, crash
// restore reads the store back (primary first, replica on a failed audit,
// ErrCheckpointCorrupt when both fail), and shrink recovery adopts a dead
// rank's shard straight from the store by its world rank.  Run names carry
// the world rank and boundary step, so a restored partition can keep pointing
// at a checkpoint run while the next boundary seals fresh names.

// shardRuns names the three runs of one shard copy.
type shardRuns struct {
	sorted    string
	splitters string
	cuts      string
}

// ckptRuns is the durable shard layout: ckpt/w<world>/s<step>.<p|r>.<part>.
func ckptRuns(world, step int, replica bool) shardRuns {
	side := "p"
	if replica {
		side = "r"
	}
	pre := fmt.Sprintf("ckpt/w%d/s%d.%s", world, step, side)
	return shardRuns{sorted: pre + ".sorted", splitters: pre + ".splitters", cuts: pre + ".cuts"}
}

// writeDurableShards seals the current snapshot as primary and replica runs.
// Each copy is written independently from the live source (the partition run
// on the external path, ck.sorted on the resident path), never from the
// other copy — a primary that rots at seal time must not poison the replica.
func (ck *checkpoint[K]) writeDurableShards(ops keys.Ops[K], part *extPartition[K]) error {
	codec := newImageCodec(ops)
	for _, replica := range []bool{false, true} {
		names := ckptRuns(ck.world, ck.step, replica)
		if part != nil {
			if err := copyRun(ck.st, part.name, names.sorted); err != nil {
				return err
			}
		} else {
			if err := writeRunKeys(ck.st, names.sorted, ck.sorted, codec); err != nil {
				return err
			}
		}
		if err := writeRunKeys(ck.st, names.splitters, ck.splitters, codec); err != nil {
			return err
		}
		if err := writeCutsRun(ck.st, names.cuts, ck.cuts); err != nil {
			return err
		}
	}
	return nil
}

// restoreDurable re-establishes the post-crash live state from the durable
// shards: audit the primary copy against the snapshot checksum, fall back to
// the replica (priced as the extra fetch it models), and give up with
// ErrCheckpointCorrupt only when both fail.  On the external path the
// partition is repointed at the intact checkpoint run; resident state is
// decoded back into the live slices.
func (ck *checkpoint[K]) restoreDurable(c *comm.Comm, ops keys.Ops[K], cfg Config, sorted *[]K, part *extPartition[K], splitters *[]K, cuts *[]int) error {
	rec := cfg.Recorder
	for i, cand := range []shardRuns{ckptRuns(ck.world, ck.step, false), ckptRuns(ck.world, ck.step, true)} {
		spl, cts, err := readAux(ck.st, cand)
		if err == nil {
			var sum uint64
			var imgs []xmath.U128
			if part != nil {
				sum, err = foldRunChecksum(ck.st, cand.sorted, ck.step, spl, cts)
			} else {
				imgs, err = readImages(ck.st, cand.sorted)
				if err == nil {
					sum = foldImagesChecksum(ck.step, imgs, spl, cts)
				}
			}
			if err == nil && sum == ck.sum {
				ck.splitters = decodeImages(ck.splitters[:0], spl, ops)
				ck.cuts = append(ck.cuts[:0], cts...)
				restore(splitters, ck.splitters)
				restore(cuts, ck.cuts)
				if part != nil {
					part.reset(cand.sorted, ck.elems)
				} else {
					ck.sorted = decodeImages(ck.sorted[:0], imgs, ops)
					restore(sorted, ck.sorted)
				}
				if i > 0 {
					if m := c.Model(); m != nil {
						vbytes := int(float64(ck.bytes(ops)) * cfg.scale())
						c.Clock().Advance(m.RestoreCost(vbytes))
					}
					rec.AddFaultSpan("recover", fmt.Sprintf("restored step %d from the replica shard", ck.step), 0)
				}
				return nil
			}
		}
		side := "primary"
		if i > 0 {
			side = "replica"
		}
		rec.AddFaultSpan("detect", fmt.Sprintf("durable %s shard failed its audit at step %d", side, ck.step), 0)
	}
	return fmt.Errorf("%w: rank %d at step %d (primary and replica durable shards both failed the audit)", ErrCheckpointCorrupt, c.Rank(), ck.step)
}

// adopt returns the dead ring predecessor's pre-exchange partition for the
// shrink recovery: the resident mirrored copy in legacy mode, or the decoded
// durable shard (audited against the mirrored descriptor, primary first,
// replica fallback) in durable mode.
func (ck *checkpoint[K]) adopt() ([]K, error) {
	if !ck.durable {
		return ck.mirror.Sorted, nil
	}
	step := int(ck.mirror.Desc.Step)
	for _, cand := range []shardRuns{ckptRuns(ck.mirrorWorld, step, false), ckptRuns(ck.mirrorWorld, step, true)} {
		spl, cts, err := readAux(ck.st, cand)
		if err != nil {
			continue
		}
		imgs, err := readImages(ck.st, cand.sorted)
		if err != nil {
			continue
		}
		if foldImagesChecksum(step, imgs, spl, cts) != ck.mirror.Desc.Sum {
			continue
		}
		return decodeImages(nil, imgs, ck.ops), nil
	}
	return nil, fmt.Errorf("%w: world rank %d at step %d (primary and replica durable shards both failed the adoption audit)", ErrCheckpointCorrupt, ck.mirrorWorld, step)
}

// readAux reads a shard copy's splitter images and cuts.
func readAux(st store.Store, cand shardRuns) ([]xmath.U128, []int, error) {
	spl, err := readImages(st, cand.splitters)
	if err != nil {
		return nil, nil, err
	}
	cts, err := readCuts(st, cand.cuts)
	if err != nil {
		return nil, nil, err
	}
	return spl, cts, nil
}

// imagesOf encodes keys to their 128-bit images.
func imagesOf[K any](ops keys.Ops[K], ks []K) []xmath.U128 {
	if len(ks) == 0 {
		return nil
	}
	out := make([]xmath.U128, len(ks))
	for i, k := range ks {
		out[i] = ops.ToBits(k)
	}
	return out
}

// decodeImages decodes images into dst via FromBits (exact for lossless key
// embeddings — the only ones durable mode accepts).
func decodeImages[K any](dst []K, imgs []xmath.U128, ops keys.Ops[K]) []K {
	for _, b := range imgs {
		dst = append(dst, ops.FromBits(b))
	}
	return dst
}

// copyRun streams run src into a fresh sealed run dst.
func copyRun(st store.Store, src, dst string) error {
	if src == dst {
		return nil
	}
	r, err := st.Open(src)
	if err != nil {
		return err
	}
	defer r.Close()
	return store.Seal(st, dst, func(w store.Writer) error {
		buf := make([]xmath.U128, spillBlock)
		for {
			n, err := r.Read(buf)
			if n > 0 {
				if werr := w.Append(buf[:n]); werr != nil {
					return werr
				}
			}
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	})
}

// writeCutsRun seals cut offsets as a run (one record per cut, value in Lo).
func writeCutsRun(st store.Store, name string, cuts []int) error {
	recs := make([]xmath.U128, len(cuts))
	for i, c := range cuts {
		recs[i] = xmath.U128{Lo: uint64(int64(c))}
	}
	return store.Seal(st, name, func(w store.Writer) error { return w.Append(recs) })
}

// readImages reads a whole run into memory.
func readImages(st store.Store, name string) ([]xmath.U128, error) {
	count, err := st.Len(name)
	if err != nil {
		return nil, err
	}
	out := make([]xmath.U128, 0, count)
	r, err := st.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	buf := make([]xmath.U128, 4096)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// readCuts reads a cuts run back.
func readCuts(st store.Store, name string) ([]int, error) {
	recs, err := readImages(st, name)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(recs))
	for i, r := range recs {
		out[i] = int(int64(r.Lo))
	}
	return out, nil
}

// fnvFold is the checkpoint checksum: FNV-1a over the step, the section
// lengths, the sorted key images, the splitter images, and the cuts — the
// one fold shared by the resident, image, and streaming variants, so a
// resident snapshot and its durable shard always agree.
type fnvFold struct{ h uint64 }

func newFold() fnvFold {
	return fnvFold{h: 14695981039346656037}
}

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

func (f *fnvFold) header(step int, elems int64, nsplit, ncuts int) {
	f.word(uint64(step))
	f.word(uint64(elems))
	f.word(uint64(nsplit))
	f.word(uint64(ncuts))
}

func (f *fnvFold) trailer(splitters []xmath.U128, cuts []int) {
	for _, b := range splitters {
		f.image(b)
	}
	for _, c := range cuts {
		f.word(uint64(int64(c)))
	}
}

// foldImagesChecksum is foldChecksum over already-encoded images.
func foldImagesChecksum(step int, sorted, splitters []xmath.U128, cuts []int) uint64 {
	f := newFold()
	f.header(step, int64(len(sorted)), len(splitters), len(cuts))
	for _, b := range sorted {
		f.image(b)
	}
	f.trailer(splitters, cuts)
	return f.h
}

// foldRunChecksum is foldChecksum with the sorted section streamed from a
// sealed run, without materializing it; the sequential read also audits the
// run's own record checksum.
func foldRunChecksum(st store.Store, name string, step int, splitters []xmath.U128, cuts []int) (uint64, error) {
	count, err := st.Len(name)
	if err != nil {
		return 0, err
	}
	f := newFold()
	f.header(step, count, len(splitters), len(cuts))
	r, err := st.Open(name)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	buf := make([]xmath.U128, 4096)
	for {
		n, err := r.Read(buf)
		for _, b := range buf[:n] {
			f.image(b)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	f.trailer(splitters, cuts)
	return f.h, nil
}
