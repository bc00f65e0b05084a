// Package server is the engine of the sort service: a bounded job queue
// with admission control, per-tenant token-bucket quotas, a pool of warm
// persistent worlds reused across jobs, batching of small compatible jobs
// into one shared world run, and an in-memory ring of per-job
// dhsort-bench/v1 metrics documents.  It knows nothing about HTTP; the
// internal/api package is the transport on top (the serverdb/api layering
// of the exemplar repo).
package server

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"time"

	"dhsort"
	"dhsort/internal/fault"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

// JobSpec is one sort job as submitted by a client.  Exactly one of Keys
// (inline data) or N (a generated workload) must be set.  The zero values
// of the remaining fields pick the server defaults.
type JobSpec struct {
	// Keys is the inline input (small jobs, exact data).
	Keys []uint64 `json:"keys,omitempty"`
	// N requests a generated workload of this many keys.
	N int `json:"n,omitempty"`
	// Dist is the workload distribution (default "uniform").
	Dist string `json:"dist,omitempty"`
	// Seed is the workload seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Span bounds the workload key range (default 1e9; 0 means default).
	Span uint64 `json:"span,omitempty"`
	// P is the world size (default the server's).
	P int `json:"p,omitempty"`
	// Exchange selects the data-exchange backend by name (default "auto").
	Exchange dhsort.ExchangeAlgorithm `json:"exchange,omitempty"`
	// Merge selects the local merge strategy by name (default "resort").
	Merge dhsort.MergeStrategy `json:"merge,omitempty"`
	// Model prices the run on a cost model: "none" (real time, default),
	// "pgas" or "mpi" (SuperMUC, 16 ranks/node).
	Model string `json:"model,omitempty"`
	// Threads is the intra-rank worker budget (0 = GOMAXPROCS in real
	// time; forced to 1 under a cost model for reproducible clocks).
	Threads int `json:"threads,omitempty"`
	// Kernel forces the Local Sort kernel ("radix", "task-merge",
	// "introsort"; empty = dispatch).
	Kernel string `json:"kernel,omitempty"`
	// Epsilon is the load-balance threshold (0 = perfect partitioning).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Fault is a seeded fault schedule in fault.Parse syntax — chaos in
	// prod.  Fault-injecting jobs run on dedicated single-shot worlds,
	// never pooled or batched.
	Fault string `json:"fault,omitempty"`
	// Recovery selects permanent-death recovery ("respawn" or "shrink").
	Recovery string `json:"recovery,omitempty"`
	// Probes is the number of histogram probes per unfinished splitter per
	// refinement round (0/1 = classic bisection; up to dhsort.MaxProbes).
	Probes int `json:"probes,omitempty"`
	// NoBatch opts the job out of batching.
	NoBatch bool `json:"no_batch,omitempty"`
	// NoWarm opts the job out of the warm-start splitter cache.
	NoWarm bool `json:"no_warm,omitempty"`
	// Spill runs the job out-of-core: local sort runs, exchange segments
	// and checkpoint shards go through a per-job scratch store on disk.
	Spill bool `json:"spill,omitempty"`
	// MemBudget is the per-rank in-memory budget in bytes for spilled jobs.
	// Setting it implies Spill; Spill with a zero budget defaults to one
	// eighth of the per-rank input (the spill ablation point).
	MemBudget int64 `json:"mem_budget,omitempty"`
}

// ranksPerNode is the node width the service prices cost models at: the
// paper's 16-ranks-per-node Charm++-comparison layout.
const ranksPerNode = 16

// normalize validates sp against the server limits and fills defaults
// in place.  Returns a *Reject (bad_request / too_large) on invalid specs.
func (s *Server) normalize(sp *JobSpec) error {
	if len(sp.Keys) > 0 && sp.N > 0 {
		return badRequest("exactly one of keys and n must be set, got both")
	}
	if len(sp.Keys) == 0 && sp.N <= 0 {
		return badRequest("one of keys (inline data) or n (generated workload) is required")
	}
	n := sp.N
	if len(sp.Keys) > 0 {
		n = len(sp.Keys)
	}
	if n > s.cfg.MaxN {
		return &Reject{HTTPStatus: 413, Reason: "too_large",
			Detail: fmt.Sprintf("job of %d keys exceeds the server limit of %d", n, s.cfg.MaxN)}
	}
	if sp.P == 0 {
		// The autoscaler's moving target when enabled, the static default
		// otherwise: this is where a grow decision starts steering new jobs
		// onto the larger worlds.
		sp.P = s.targetP()
	}
	if sp.P < 1 || sp.P > s.cfg.MaxP {
		return badRequest(fmt.Sprintf("p=%d outside the accepted range [1, %d]", sp.P, s.cfg.MaxP))
	}
	if sp.N > 0 {
		if sp.Dist == "" {
			sp.Dist = string(workload.Uniform)
		}
		if !slices.Contains(workload.Distributions, workload.Distribution(sp.Dist)) {
			return badRequest(fmt.Sprintf("unknown workload distribution %q", sp.Dist))
		}
		if sp.Seed == 0 {
			sp.Seed = 1
		}
		if sp.Span == 0 {
			sp.Span = 1e9
		}
	}
	if sp.Model == "" {
		sp.Model = "none"
	}
	if _, err := simnet.ParseModel(sp.Model, ranksPerNode); err != nil {
		return badRequest(err.Error())
	}
	if sp.Model != "none" && sp.Threads == 0 {
		// Reproducible virtual clocks need a pinned thread budget.
		sp.Threads = 1
	}
	if sp.Fault != "" {
		if _, err := fault.Parse(sp.Fault); err != nil {
			return badRequest(err.Error())
		}
	}
	if sp.MemBudget > 0 {
		sp.Spill = true
	}
	if sp.Spill && sp.MemBudget == 0 {
		// One eighth of the per-rank input: per-rank keys × 8 bytes / 8.
		per := (n + sp.P - 1) / sp.P
		sp.MemBudget = int64(per)
		if sp.MemBudget < 16 {
			sp.MemBudget = 16
		}
	}
	if sp.Recovery == "" {
		sp.Recovery = dhsort.RecoveryRespawn
	}
	// A spilled job runs against a scratch directory runSingle makes under
	// this root: the shared store shrink recovery requires.
	if err := sp.config(nil, cmp.Or(s.cfg.ScratchDir, os.TempDir())).Validate(); err != nil {
		return badRequest(err.Error())
	}
	return nil
}

// n returns the job's total key count.
func (sp JobSpec) n() int {
	if len(sp.Keys) > 0 {
		return len(sp.Keys)
	}
	return sp.N
}

// config converts the normalized spec to a facade sort configuration;
// scratch is the directory a spilled job's run store lives in.
func (sp JobSpec) config(rec *dhsort.Recorder, scratch string) dhsort.Config {
	return dhsort.Config{
		Epsilon:   sp.Epsilon,
		Probes:    sp.Probes,
		Merge:     sp.Merge,
		Exchange:  sp.Exchange,
		Threads:   sp.Threads,
		Kernel:    sp.Kernel,
		Recovery:  sp.Recovery,
		MemBudget: sp.MemBudget,
		SpillDir:  scratch,
		Recorder:  rec,
	}
}

// batchKey groups jobs that may share one world run: identical execution
// configuration, differing only in data.
type batchKey struct {
	P        int
	Model    string
	Exchange dhsort.ExchangeAlgorithm
	Merge    dhsort.MergeStrategy
	Threads  int
	Kernel   string
	Epsilon  float64
	Probes   int
}

// batchKeyOf derives the compatibility key of a normalized spec.
func batchKeyOf(sp JobSpec) batchKey {
	return batchKey{
		P: sp.P, Model: sp.Model, Exchange: sp.Exchange, Merge: sp.Merge,
		Threads: sp.Threads, Kernel: sp.Kernel, Epsilon: sp.Epsilon,
		Probes: sp.Probes,
	}
}

// batchEligible reports whether a normalized spec may join a shared world
// run: fault-free, small, resident, and not opted out.  Spilled jobs are
// excluded because the batch embedding (batchOps) is not registered
// lossless, so a shared run would silently ignore the mem_budget; they run
// alone against their own scratch store instead.  Warm splitter starts stay
// available to spilled jobs — the spilled path refines splitters over the
// identical histogram protocol.
func (s *Server) batchEligible(sp JobSpec) bool {
	return !sp.NoBatch && sp.Fault == "" && !sp.Spill && sp.n() <= s.cfg.BatchMaxKeys
}

// rankShare returns the [lo, hi) slice bounds of rank r in a contiguous
// split of n keys over p ranks (the same fair split workload.LocalSize
// uses: the first n%p ranks get one extra).
func rankShare(n, p, r int) (int, int) {
	base, rem := n/p, n%p
	lo := r*base + min(r, rem)
	hi := lo + base
	if r < rem {
		hi++
	}
	return lo, hi
}

// timeNow is stubbed in tests that need deterministic quota refill.
var timeNow = time.Now
