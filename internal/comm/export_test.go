package comm

// RendezvousKeys returns the communicators, as (id, size), that pw's world
// holds a rendezvous for.
func RendezvousKeys(pw *PersistentWorld) [][2]uint64 {
	pw.w.mu.Lock()
	defer pw.w.mu.Unlock()
	var keys [][2]uint64
	for k := range pw.w.rdv {
		keys = append(keys, [2]uint64{k.id, uint64(k.size)})
	}
	return keys
}

// CommKey returns c's communicator as (id, size).
func CommKey(c *Comm) [2]uint64 { return [2]uint64{c.id, uint64(len(c.group))} }

// FirstCollectiveTag is the tag of round 0 of the first collective a fresh
// communicator handle runs; round k is tagged FirstCollectiveTag+k.
const FirstCollectiveTag = -tagRoundSpace

// JoinBarrierTag is the tag of the join barrier's round 0; round k is
// tagged JoinBarrierTag+k.
const JoinBarrierTag = growTagBase + 1
