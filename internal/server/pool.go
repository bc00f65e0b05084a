package server

import (
	"sync"

	"dhsort"
	"dhsort/internal/simnet"
)

// poolKey identifies a class of interchangeable worlds: same rank count,
// same cost model.
type poolKey struct {
	P     int
	Model string
}

// worldPool keeps warm persistent worlds between jobs.  A checkout either
// reuses an idle world of the right shape (a pool hit — the job skips rank
// goroutine and communicator construction) or builds a fresh one.  Checkin
// retires unhealthy worlds (a failed job permanently breaks its world) and
// caps idle inventory per shape.  Fault-injecting jobs never touch the
// pool: they run on dedicated single-shot worlds.
type worldPool struct {
	mu      sync.Mutex
	maxIdle int
	idle    map[poolKey][]*dhsort.PersistentWorld
	closed  bool

	hits    int64
	misses  int64
	built   int64
	retired int64
}

// PoolStats is the pool's counter snapshot, exported on /v1/metrics.  Hits
// count checkouts served by a warm world; Misses count checkouts that had
// to build one.
type PoolStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Built   int64 `json:"built"`
	Retired int64 `json:"retired"`
	Idle    int   `json:"idle"`
}

func newWorldPool(maxIdle int) *worldPool {
	return &worldPool{maxIdle: maxIdle, idle: make(map[poolKey][]*dhsort.PersistentWorld)}
}

// checkout returns a world for key, reporting whether it was a pool hit.
func (wp *worldPool) checkout(key poolKey) (*dhsort.PersistentWorld, bool, error) {
	wp.mu.Lock()
	if list := wp.idle[key]; len(list) > 0 {
		pw := list[len(list)-1]
		list[len(list)-1] = nil
		wp.idle[key] = list[:len(list)-1]
		wp.hits++
		wp.mu.Unlock()
		return pw, true, nil
	}
	wp.misses++
	wp.built++
	wp.mu.Unlock()
	model, err := simnet.ParseModel(key.Model, ranksPerNode)
	if err != nil {
		return nil, false, err
	}
	pw, err := dhsort.NewPersistentWorld(key.P, model)
	if err != nil {
		return nil, false, err
	}
	return pw, false, nil
}

// checkin returns a world after a job.  Broken worlds are closed and
// counted as retired; healthy ones go back on the shelf unless the shape's
// idle cap is reached.
func (wp *worldPool) checkin(key poolKey, pw *dhsort.PersistentWorld) {
	if !pw.Healthy() {
		pw.Close()
		wp.mu.Lock()
		wp.retired++
		wp.mu.Unlock()
		return
	}
	wp.mu.Lock()
	if wp.closed || len(wp.idle[key]) >= wp.maxIdle {
		wp.retired++
		wp.mu.Unlock()
		pw.Close()
		return
	}
	wp.idle[key] = append(wp.idle[key], pw)
	wp.mu.Unlock()
}

// takeIdle removes and returns every idle world shelved under key.  The
// hit/miss counters are untouched: the autoscaler uses this to reshape warm
// inventory, which is neither a checkout hit nor a cold build.
func (wp *worldPool) takeIdle(key poolKey) []*dhsort.PersistentWorld {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	if wp.closed {
		return nil
	}
	list := wp.idle[key]
	delete(wp.idle, key)
	return list
}

// idleShapes lists the shapes currently holding at least one idle world.
func (wp *worldPool) idleShapes() []poolKey {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	ks := make([]poolKey, 0, len(wp.idle))
	for k, list := range wp.idle {
		if len(list) > 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

func (wp *worldPool) stats() PoolStats {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	idle := 0
	for _, list := range wp.idle {
		idle += len(list)
	}
	return PoolStats{Hits: wp.hits, Misses: wp.misses, Built: wp.built, Retired: wp.retired, Idle: idle}
}

// closeAll shuts down every idle world and refuses future checkins.
func (wp *worldPool) closeAll() {
	wp.mu.Lock()
	wp.closed = true
	var all []*dhsort.PersistentWorld
	for _, list := range wp.idle {
		all = append(all, list...)
	}
	wp.idle = make(map[poolKey][]*dhsort.PersistentWorld)
	wp.mu.Unlock()
	for _, pw := range all {
		pw.Close()
	}
}
