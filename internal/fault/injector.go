package fault

import "time"

// Verdict is the injector's ruling on one transmission attempt of one
// message.  Drop excludes the rest: a dropped attempt never reaches the
// wire, so duplication, delay and reordering apply only to the attempt
// that is finally delivered.
type Verdict struct {
	Drop    bool
	Dup     bool
	Delay   time.Duration
	Reorder bool
}

// Injector adjudicates fault decisions for a Plan.  It is stateless after
// construction and safe for concurrent use from every rank goroutine: each
// decision hashes the schedule seed with the identity of the event, so the
// outcome is independent of call order.
type Injector struct {
	plan  Plan
	crash map[rankStep]struct{}
	stall map[rankStep]time.Duration
	die   map[rankStep]struct{}
}

type rankStep struct{ rank, step int }

// New validates the plan and builds its injector.  A plan that injects
// nothing yields a nil injector, so callers can gate the entire fault path
// on `inj != nil`.
func New(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.Enabled() {
		return nil, nil
	}
	in := &Injector{plan: p}
	if len(p.Crashes) > 0 {
		in.crash = make(map[rankStep]struct{}, len(p.Crashes))
		for _, c := range p.Crashes {
			in.crash[rankStep{c.Rank, c.Step}] = struct{}{}
		}
	}
	if len(p.Stalls) > 0 {
		in.stall = make(map[rankStep]time.Duration, len(p.Stalls))
		for _, s := range p.Stalls {
			in.stall[rankStep{s.Rank, s.Step}] += s.D
		}
	}
	if len(p.Deaths) > 0 {
		in.die = make(map[rankStep]struct{}, len(p.Deaths))
		for _, d := range p.Deaths {
			in.die[rankStep{d.Rank, d.Step}] = struct{}{}
		}
	}
	return in, nil
}

// MessageFaults reports whether the transport must run its sequenced,
// retransmitting delivery path.
func (in *Injector) MessageFaults() bool {
	return in != nil && in.plan.MessageFaults()
}

// Distinct hash salts keep the per-channel decisions independent even
// though every flow starts at sequence number 1.
const (
	saltDrop uint64 = 0xd509_0fb1_ca3d_11e9 + iota
	saltDup
	saltDelay
	saltJitter
	saltReorder
)

// Verdict adjudicates one transmission attempt.  commID, src, dst and tag
// identify the flow (src/dst are world ranks), seq the message within the
// flow, attempt the retransmission round (0 = first try).
func (in *Injector) Verdict(commID uint64, src, dst, tag int, seq uint64, attempt int) Verdict {
	var v Verdict
	if in == nil {
		return v
	}
	p := in.plan
	key := [6]uint64{commID, uint64(int64(src)), uint64(int64(dst)), uint64(int64(tag)), seq, uint64(int64(attempt))}
	if p.DropRate > 0 && in.uniform(saltDrop, key) < p.DropRate {
		v.Drop = true
		return v
	}
	if p.DupRate > 0 && in.uniform(saltDup, key) < p.DupRate {
		v.Dup = true
	}
	if p.DelayRate > 0 && in.uniform(saltDelay, key) < p.DelayRate {
		d := time.Duration(in.uniform(saltJitter, key) * float64(p.maxDelay()))
		if d <= 0 {
			d = 1
		}
		v.Delay = d
	}
	if p.ReorderRate > 0 && in.uniform(saltReorder, key) < p.ReorderRate {
		v.Reorder = true
	}
	return v
}

// CrashAt reports whether the rank is scheduled to crash right after
// completing the given superstep.
func (in *Injector) CrashAt(rank, step int) bool {
	if in == nil {
		return false
	}
	_, ok := in.crash[rankStep{rank, step}]
	return ok
}

// StallAt returns the scheduled stall duration for the rank at the given
// superstep boundary (0 = none).
func (in *Injector) StallAt(rank, step int) time.Duration {
	if in == nil {
		return 0
	}
	return in.stall[rankStep{rank, step}]
}

// DieAt reports whether the rank is scheduled to die permanently right
// after completing the given superstep.
func (in *Injector) DieAt(rank, step int) bool {
	if in == nil {
		return false
	}
	_, ok := in.die[rankStep{rank, step}]
	return ok
}

// Deaths reports whether the plan schedules any permanent rank deaths.
func (in *Injector) Deaths() bool {
	return in != nil && len(in.plan.Deaths) > 0
}

// uniform maps (seed, salt, key) to [0, 1) with 53 bits of precision.
func (in *Injector) uniform(salt uint64, key [6]uint64) float64 {
	h := mix64(in.plan.Seed ^ salt)
	for _, v := range key {
		h = mix64(h ^ v)
	}
	return float64(h>>11) / (1 << 53)
}

// mix64 is the splitmix64 finalizer — a full-avalanche 64-bit mixer.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
