// Package server is the engine of the sort service: a bounded job queue
// with admission control, per-tenant token-bucket quotas, a pool of warm
// persistent worlds reused across jobs, batching of small compatible jobs
// into one shared world run, and an in-memory ring of per-job
// dhsort-bench/v1 metrics documents.  It knows nothing about HTTP; the
// internal/api package is the transport on top (the serverdb/api layering
// of the exemplar repo).
package server

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
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
	// Model prices the run on a cost model: "none" (real time, default),
	// "pgas" or "mpi" (SuperMUC, 16 ranks/node).  With P it is the shape of
	// the world the job runs on (its pool key), not a sort setting.
	Model string `json:"model,omitempty"`
	// Settings are the sort settings.
	Settings
	// Fault is a seeded fault schedule in fault.Parse syntax — chaos in
	// prod.  Fault-injecting jobs run on dedicated single-shot worlds,
	// never pooled or batched.
	Fault string `json:"fault,omitempty"`
	// Recovery selects permanent-death recovery ("respawn" or "shrink").
	// It acts only under a fault plan, so it stays out of Settings.
	Recovery string `json:"recovery,omitempty"`
	// NoBatch opts the job out of batching.
	NoBatch bool `json:"no_batch,omitempty"`
	// Spill runs the job out-of-core: local sort runs, exchange segments
	// and checkpoint shards go through a per-job scratch store on disk.
	Spill bool `json:"spill,omitempty"`
	// MemBudget is the per-rank in-memory budget in bytes for spilled jobs.
	// Setting it implies Spill; Spill with a zero budget defaults to one
	// eighth of the per-rank input (the spill ablation point).
	MemBudget int64 `json:"mem_budget,omitempty"`
}

// Settings is the one declaration of a job's sort settings.  Embedded in
// JobSpec, its members keep their JSON names; it is comparable, so jobs may
// share a world run exactly when their world shape (P, Model) and Settings
// are equal.
type Settings struct {
	// Exchange selects the data-exchange backend by name (default "auto").
	Exchange dhsort.ExchangeAlgorithm `json:"exchange,omitempty"`
	// Merge selects the local merge strategy by name: "resort" (default),
	// "binary-tree" or "overlap"; any other name is rejected with a 400.
	Merge dhsort.MergeStrategy `json:"merge,omitempty"`
	// Threads is the intra-rank worker budget (0 = GOMAXPROCS in real
	// time; forced to 1 under a cost model for reproducible clocks).
	Threads int `json:"threads,omitempty"`
	// Kernel forces the Local Sort kernel ("radix", "task-merge",
	// "introsort"; empty = dispatch).
	Kernel string `json:"kernel,omitempty"`
	// Epsilon is the load-balance threshold (0 = perfect partitioning).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Probes is the number of histogram probes per unfinished splitter per
	// refinement round (0/1 = classic bisection; up to dhsort.MaxProbes).
	Probes int `json:"probes,omitempty"`
}

// DecodeJobSpec reads one submit body from r to its end and decodes it
// exactly as a json.Decoder with DisallowUnknownFields decodes the first
// value of that stream: same JobSpec, same error, trailing bytes ignored.
// sizeHint is the body's declared length (the HTTP Content-Length; 0 or
// less when unknown): the read buffer starts at that size, capped at
// maxSizeHint, and grows past it only as bytes arrive.
//
// The bodies json.Marshal(JobSpec) and `dhsort submit` send take a fast
// path: optional whitespace, then `{"keys":[` exactly, then only canonical
// unsigned decimals (no sign, leading zero, fraction or exponent; at most
// MaxUint64) between commas and JSON whitespace.  That array is parsed in
// one pass with no reflection; the members after it, if any, go through
// encoding/json as a small object of their own.  Every other body — and
// any doubt, so every error — is decoded whole by encoding/json.
func DecodeJobSpec(r io.Reader, sizeHint int) (JobSpec, error) {
	body, err := readBody(r, sizeHint)
	if err != nil {
		// Replay what arrived and then the read error, so the decoder meets
		// the failure where a streaming decode of r would have: a value that
		// completes before it still decodes, anything else returns it.
		return decodeJSON(io.MultiReader(bytes.NewReader(body), errReader{err}))
	}
	if sp, ok := decodeInline(body); ok {
		return sp, nil
	}
	return decodeJSON(bytes.NewReader(body))
}

// decodeJSON is the reference decode: encoding/json, unknown fields
// rejected, the first value of the stream.
func decodeJSON(r io.Reader) (JobSpec, error) {
	var sp JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&sp)
	return sp, err
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// maxSizeHint caps the buffer a declared body size presizes: a client that
// declares a large body and then sends nothing holds at most this much.
// serve-session's inline bodies (≈ 40 KB) fit in one buffer.
const maxSizeHint = 1 << 20

// readBody reads r to EOF into a buffer presized from sizeHint.
func readBody(r io.Reader, sizeHint int) ([]byte, error) {
	n := min(max(sizeHint, 0), maxSizeHint)
	b := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead)) // ReadFrom wants MinRead free per read
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// decodeInline is DecodeJobSpec's fast path.  ok is false whenever body is
// not of the fast path's shape or its remainder does not decode; the caller
// then decodes the whole body with encoding/json.
func decodeInline(body []byte) (sp JobSpec, ok bool) {
	const head = `{"keys":[`
	i := skipSpace(body, 0)
	if !bytes.HasPrefix(body[i:], []byte(head)) {
		return sp, false
	}
	i += len(head)
	end := bytes.IndexByte(body[i:], ']')
	if end < 0 {
		return sp, false
	}
	keys, ok := parseKeys(body[i : i+end])
	if !ok {
		return sp, false
	}

	rest := body[i+end+1:]
	j := skipSpace(rest, 0)
	switch {
	case j < len(rest) && rest[j] == '}':
		// The object ends here; whatever follows it is past the first value.
	case j < len(rest) && rest[j] == ',':
		// More members: decode them as an object of their own, unless one
		// could be spelled "keys" (any case, an escape, a non-ASCII fold) and
		// so interact with the array already parsed.
		j = skipSpace(rest, j+1)
		if j == len(rest) || rest[j] != '"' || !plainMembers(rest[j:]) {
			return sp, false
		}
		var err error
		if sp, err = decodeJSON(bytes.NewReader(append([]byte{'{'}, rest[j:]...))); err != nil {
			return JobSpec{}, false
		}
	default:
		return sp, false
	}
	sp.Keys = keys
	return sp, true
}

// parseKeys parses the inside of a keys array made of canonical unsigned
// decimals separated by commas and JSON whitespace.  The slice it returns
// has exactly its length as capacity (a non-nil empty slice for []).  No
// valid array holds more than (len(arr)+1)/2 keys (a digit and a comma
// each), which bounds the slice a run of bare commas can ask for.
func parseKeys(arr []byte) ([]uint64, bool) {
	j := skipSpace(arr, 0)
	if j == len(arr) {
		return []uint64{}, true
	}
	keys := make([]uint64, 0, min(bytes.Count(arr, []byte{','})+1, (len(arr)+1)/2))
	for {
		v, next, ok := canonicalUint(arr, j)
		if !ok {
			return nil, false
		}
		keys = append(keys, v)
		j = skipSpace(arr, next)
		if j == len(arr) {
			return keys, true
		}
		if arr[j] != ',' {
			return nil, false
		}
		j = skipSpace(arr, j+1)
	}
}

// canonicalUint parses the canonical unsigned decimal at b[i:] and returns
// it with the index after its last digit: eight digits at a time while they
// last, then one by one, and a twentieth only if it keeps the value within
// MaxUint64.
func canonicalUint(b []byte, i int) (uint64, int, bool) {
	start := i
	var v uint64
	for i+8 <= len(b) && i-start < 16 {
		c, ok := eightDigits(binary.LittleEndian.Uint64(b[i:]))
		if !ok {
			break
		}
		v = v*1e8 + c
		i += 8
	}
	for ; i < len(b) && i-start < 19 && b[i]-'0' <= 9; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	if i < len(b) && b[i]-'0' <= 9 {
		d := uint64(b[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, i, false
		}
		v, i = v*10+d, i+1
		if i < len(b) && b[i]-'0' <= 9 {
			return 0, i, false
		}
	}
	n := i - start
	return v, i, n == 1 || (n > 1 && b[start] != '0')
}

// eightDigits returns the value of x's eight bytes read as ASCII decimal
// digits, first digit in the low byte, and whether all eight are digits.
func eightDigits(x uint64) (uint64, bool) {
	const hi, six = 0xF0F0F0F0F0F0F0F0, 0x0606060606060606
	if x&hi|(x+six)&hi>>4 != 0x3333333333333333 {
		return 0, false
	}
	x -= 0x3030303030303030
	x = x*10 + x>>8 // each even byte: the two-digit number it starts
	const lo2 = 0x000000FF000000FF
	return (x&lo2*(100+1000000<<32) + x>>16&lo2*(1+10000<<32)) >> 32, true
}

// plainMembers reports whether rest is pure ASCII without escapes and
// names nothing that folds to "keys".
func plainMembers(rest []byte) bool {
	for _, c := range rest {
		if c >= 0x80 || c == '\\' {
			return false
		}
	}
	return !bytes.Contains(bytes.ToLower(rest), []byte("keys"))
}

// skipSpace returns the index of the first byte at or after i in b that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
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
	// A spilled job runs against a scratch directory runJobs makes under
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

// world returns the shape of the world the job runs on.
func (sp JobSpec) world() poolKey { return poolKey{P: sp.P, Model: sp.Model} }

// batchEligible reports whether a normalized spec may join a shared world
// run: fault-free, small, resident, and not opted out.  Spilled jobs are
// excluded because the batch embedding (batchOps) is not registered
// lossless, so a shared run would silently ignore the mem_budget; they run
// alone against their own scratch store instead.
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
