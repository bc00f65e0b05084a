package server

import (
	"sync"

	"dhsort"
)

// warmKey identifies jobs whose key distributions are expected to match:
// same tenant, world size and generated-workload shape.  Inline-key jobs
// are never cached — their distribution is opaque — and neither are
// fault-injecting jobs, whose worlds may shrink mid-run.
type warmKey struct {
	Tenant string
	P      int
	Dist   string
	Span   uint64
}

// warmKeyOf derives the cache key of a normalized spec, or reports the job
// ineligible for warm starting.
func warmKeyOf(tenant string, sp JobSpec) (warmKey, bool) {
	if sp.NoWarm || sp.Fault != "" || sp.N <= 0 || sp.P < 2 {
		return warmKey{}, false
	}
	return warmKey{Tenant: tenant, P: sp.P, Dist: sp.Dist, Span: sp.Span}, true
}

// warmEntry is one cached set of converged splitters.  coldIters is the
// round count of the run that first populated the entry — the baseline the
// rounds-saved counter is measured against; splitters track the latest
// completed run so the seed follows slow distribution drift.
type warmEntry struct {
	splitters []uint64
	coldIters int
}

// warmCache keeps the converged splitters of completed fault-free jobs and
// seeds compatible follow-up jobs with them.  FIFO eviction bounds the
// footprint.  A stale entry can never corrupt a result: core probes a seed
// once, inside the bracket the job's own data puts around the boundary, and
// drops one that lies outside it.  All methods
// are nil-safe, like Recorder: tests that assemble a Server by hand get a
// disabled cache for free.
type warmCache struct {
	mu      sync.Mutex
	cap     int
	entries map[warmKey]*warmEntry
	order   []warmKey

	hits, misses, roundsSaved int64
}

func newWarmCache(cap int) *warmCache {
	return &warmCache{cap: cap, entries: make(map[warmKey]*warmEntry)}
}

// lookup returns the seed intervals and the cold-round baseline for key,
// counting the hit or miss.
func (w *warmCache) lookup(key warmKey) ([]dhsort.WarmInterval, int, bool) {
	if w == nil {
		return nil, 0, false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.entries[key]
	if !ok || len(e.splitters) != key.P-1 {
		w.misses++
		return nil, 0, false
	}
	w.hits++
	return dhsort.Uint64WarmIntervals(e.splitters), e.coldIters, true
}

// store records a completed run's converged splitters.  An existing entry
// keeps its cold-round baseline (a warm run's tiny count would otherwise
// make future savings invisible); a new entry evicts FIFO past the cap.
func (w *warmCache) store(key warmKey, splitters []uint64, iters int) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if e, ok := w.entries[key]; ok {
		e.splitters = splitters
		return
	}
	if len(w.order) >= w.cap {
		delete(w.entries, w.order[0])
		w.order = w.order[1:]
	}
	w.entries[key] = &warmEntry{splitters: splitters, coldIters: iters}
	w.order = append(w.order, key)
}

func (w *warmCache) addSaved(n int64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.roundsSaved += n
	w.mu.Unlock()
}

// WarmStats is the warm-start block of /v1/metrics.
type WarmStats struct {
	Hits        int64 `json:"warm_hits"`
	Misses      int64 `json:"warm_misses"`
	RoundsSaved int64 `json:"rounds_saved"`
	Entries     int   `json:"entries"`
}

func (w *warmCache) stats() WarmStats {
	if w == nil {
		return WarmStats{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return WarmStats{Hits: w.hits, Misses: w.misses, RoundsSaved: w.roundsSaved, Entries: len(w.entries)}
}
