package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/fault"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/store"
	"dhsort/internal/workload"
	"dhsort/internal/xmath"
)

// spillBudget returns a MemBudget of roughly 1/eighth of a rank's input
// volume, the acceptance geometry: the local sort must spill about eight
// runs per rank.
func spillBudget(perRank int) int64 {
	return int64(perRank) * 8 / 8
}

// runSortClocked is runSort additionally returning each rank's final virtual
// clock and its recorder, for cross-backing identity assertions.
func runSortClocked(t *testing.T, p int, spec workload.Spec, perRank int, cfg Config, model *simnet.CostModel) (ins, outs [][]uint64, clocks []time.Duration, recs []*metrics.Recorder) {
	t.Helper()
	w, err := comm.NewWorld(p, model)
	if err != nil {
		t.Fatal(err)
	}
	ins = make([][]uint64, p)
	outs = make([][]uint64, p)
	clocks = make([]time.Duration, p)
	recs = make([]*metrics.Recorder, p)
	var mu sync.Mutex
	err = w.Run(func(c *comm.Comm) error {
		local, err := spec.Rank(c.Rank(), perRank)
		if err != nil {
			return err
		}
		rec := metrics.ForComm(c)
		runCfg := cfg
		runCfg.Recorder = rec
		out, err := Sort(c, local, u64, runCfg)
		if err != nil {
			return err
		}
		rec.Finish()
		mu.Lock()
		ins[c.Rank()] = local
		outs[c.Rank()] = out
		clocks[c.Rank()] = c.Clock().Now()
		recs[c.Rank()] = rec
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ins, outs, clocks, recs
}

// TestSpilledSortMatchesResident is the out-of-core acceptance test: a P=16
// sort whose MemBudget is an eighth of each rank's input must complete from
// disk runs with output bit-identical to the in-memory run at identical
// parameters.
func TestSpilledSortMatchesResident(t *testing.T) {
	const p, perRank = 16, 2048
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 3, Span: 1e9}

	_, want := runSort(t, p, spec, perRank, Config{Threads: 1}, model)
	cfg := Config{Threads: 1, MemBudget: spillBudget(perRank), SpillDir: t.TempDir()}
	ins, got, _, recs := runSortClocked(t, p, spec, perRank, cfg, model)
	checkSorted(t, ins, got, true, 0)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("spilled run's output differs from the in-memory run")
	}
	s := metrics.Summarize(recs)
	if s.SpilledRuns == 0 || s.SpillBytes == 0 {
		t.Fatalf("budget of %d bytes produced no spilled runs: %+v", cfg.MemBudget, s)
	}
	// Eight-ish local-sort runs per rank, plus the merged partition and the
	// exchange runs: the counter must at least cover the local-sort runs.
	if s.SpilledRuns < int64(p*8) {
		t.Errorf("expected at least %d spilled runs across %d ranks, got %d", p*8, p, s.SpilledRuns)
	}
}

// TestSpilledSortBackingIndependence pins the storage plane's core claim:
// the same budgeted sort over a memory-backed and a filesystem-backed store
// is bit-identical in output and in every rank's virtual clock.
func TestSpilledSortBackingIndependence(t *testing.T) {
	const p, perRank = 8, 1536
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Zipf, Seed: 11, Span: 1e9}
	base := Config{Threads: 1, MemBudget: spillBudget(perRank)}

	memCfg := base
	memCfg.Store = store.NewMem()
	_, memOut, memClocks, _ := runSortClocked(t, p, spec, perRank, memCfg, model)

	fsCfg := base
	fsCfg.SpillDir = t.TempDir()
	ins, fsOut, fsClocks, _ := runSortClocked(t, p, spec, perRank, fsCfg, model)

	checkSorted(t, ins, fsOut, true, 0)
	if !reflect.DeepEqual(memOut, fsOut) {
		t.Fatal("memory- and filesystem-backed runs produced different output")
	}
	if !reflect.DeepEqual(memClocks, fsClocks) {
		t.Fatalf("virtual clocks diverged across backings:\n mem: %v\n  fs: %v", memClocks, fsClocks)
	}
}

// TestSpilledSortPrivateMemStore runs the budgeted path with no shared store
// configured: spill runs land in a run-private in-memory store and the
// output still matches the resident run.
func TestSpilledSortPrivateMemStore(t *testing.T) {
	const p, perRank = 5, 700
	spec := workload.Spec{Dist: workload.Normal, Seed: 21, Span: 1e9}
	_, want := runSort(t, p, spec, perRank, Config{}, nil)
	ins, got := runSort(t, p, spec, perRank, Config{MemBudget: spillBudget(perRank)}, nil)
	checkSorted(t, ins, got, true, 0)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("private-store spilled run's output differs from the in-memory run")
	}
}

// TestSpilledSortFanIn exercises the multi-pass merge: fan-in 2 over eight
// runs forces reduction passes, and the output must not change.
func TestSpilledSortFanIn(t *testing.T) {
	const p, perRank = 4, 1024
	spec := workload.Spec{Dist: workload.Uniform, Seed: 8, Span: 1e9}
	_, want := runSort(t, p, spec, perRank, Config{}, nil)
	cfg := Config{MemBudget: spillBudget(perRank), SpillFanIn: 2, SpillDir: t.TempDir()}
	ins, got := runSort(t, p, spec, perRank, cfg, nil)
	checkSorted(t, ins, got, true, 0)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("fan-in-2 spilled run's output differs from the in-memory run")
	}
}

// TestSpilledSortLossyKeysStayResident pins the eligibility rule: keys whose
// embedding is not lossless ignore the budget and sort resident.
func TestSpilledSortLossyKeysStayResident(t *testing.T) {
	const p, perRank = 3, 400
	w, err := comm.NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	sops := keys.String{}
	recs := make([]*metrics.Recorder, p)
	var mu sync.Mutex
	err = w.Run(func(c *comm.Comm) error {
		spec := workload.Spec{Dist: workload.Uniform, Seed: uint64(c.Rank() + 1), Span: 1e9}
		nums, err := spec.Rank(c.Rank(), perRank)
		if err != nil {
			return err
		}
		local := make([]string, len(nums))
		for i, v := range nums {
			local[i] = fmt.Sprintf("%016x", v)
		}
		rec := metrics.ForComm(c)
		out, err := Sort(c, local, sops, Config{MemBudget: 64, Recorder: rec})
		if err != nil {
			return err
		}
		if len(out) == 0 && perRank > 0 && c.Size() == 1 {
			t.Error("empty output")
		}
		mu.Lock()
		recs[c.Rank()] = rec
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := metrics.Summarize(recs)
	if s.SpilledRuns != 0 || s.SpillBytes != 0 {
		t.Fatalf("string keys must not spill, got %d runs / %d bytes", s.SpilledRuns, s.SpillBytes)
	}
}

// TestSpillConfigValidation pins the configuration surface: negative
// budgets, degenerate fan-ins, and shrink recovery without a shared store
// are rejected before any rank runs.
func TestSpillConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"negative budget", Config{MemBudget: -1}},
		{"fan-in one", Config{SpillFanIn: 1}},
		{"shrink without shared store", Config{MemBudget: 1 << 20, Recovery: RecoveryShrink}},
	} {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: validate accepted %+v", tc.name, tc.cfg)
		}
	}
	ok := Config{MemBudget: 1 << 20, Recovery: RecoveryShrink, SpillDir: "/tmp/x"}
	if err := ok.Validate(); err != nil {
		t.Errorf("shrink with SpillDir rejected: %v", err)
	}
}

// TestSpilledSortDieShrink is the die-shrink acceptance leg: a budgeted P=16
// sort with a permanent death must recover by adopting the victim's
// partition or replica run from the shared store and finish loss-free on the
// survivors.
func TestSpilledSortDieShrink(t *testing.T) {
	const p, perRank = 16, 2048
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 3, Span: 1e9}
	plan := fault.Plan{Seed: 7, Deaths: []fault.Death{{Rank: 3, Step: StepSplitting}}}
	cfg := Config{
		Threads:   1,
		Recovery:  RecoveryShrink,
		MemBudget: spillBudget(perRank),
		SpillDir:  t.TempDir(),
	}

	ins, outs, _, recs, effSizes, err := runSortShrink(t, p, spec, perRank, cfg, model, plan)
	if err != nil {
		t.Fatal(err)
	}
	if outs[3] != nil {
		t.Error("dead rank 3 produced output")
	}
	for r, sz := range effSizes {
		if r != 3 && sz != p-1 {
			t.Errorf("rank %d finished on a communicator of size %d, want %d", r, sz, p-1)
		}
	}
	checkSorted(t, ins, outs, false, 0)
	s := metrics.Summarize(recs)
	if s.Fault.Deaths != 1 {
		t.Errorf("1 death scheduled, %d recorded", s.Fault.Deaths)
	}
	if s.SpilledRuns == 0 {
		t.Error("die-shrink run recorded no spilled runs")
	}
}

// corruptStore wraps a filesystem store and corrupts targeted runs the
// moment the trigger run seals — rank 3's checkpoint replica, so the
// partition run rots after the one pass that audits it and seals the replica
// from it.  Truncation chops the tail (caught by the size audit at open), a
// bit flip rots one record byte (caught by the footer checksum at
// sequential-read completion).
type corruptStore struct {
	store.Store
	dir     string
	trigger string
	targets map[string]string // run name -> "truncate" | "bitflip"
}

func (cs corruptStore) Create(name string) (store.Writer, error) {
	w, err := cs.Store.Create(name)
	if err != nil || name != cs.trigger {
		return w, err
	}
	return corruptWriter{Writer: w, cs: cs}, nil
}

type corruptWriter struct {
	store.Writer
	cs corruptStore
}

func (cw corruptWriter) Close() error {
	if err := cw.Writer.Close(); err != nil {
		return err
	}
	for name, kind := range cw.cs.targets {
		path := filepath.Join(cw.cs.dir, filepath.FromSlash(name)+".run")
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		switch kind {
		case "truncate":
			b = b[:len(b)-32]
		case "bitflip":
			b[len(b)/3] ^= 0x40
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runSortErr is runSort returning the world error instead of fataling, for
// corruption tests that expect typed failures.
func runSortErr(t *testing.T, p int, spec workload.Spec, perRank int, cfg Config, model *simnet.CostModel, plan fault.Plan) (ins, outs [][]uint64, err error) {
	t.Helper()
	w, werr := comm.NewWorldWithFaults(p, model, plan)
	if werr != nil {
		t.Fatal(werr)
	}
	ins = make([][]uint64, p)
	outs = make([][]uint64, p)
	var mu sync.Mutex
	err = w.Run(func(c *comm.Comm) error {
		local, lerr := spec.Rank(c.Rank(), perRank)
		if lerr != nil {
			return lerr
		}
		out, serr := Sort(c, local, u64, cfg)
		if serr != nil {
			return serr
		}
		mu.Lock()
		ins[c.Rank()] = local
		outs[c.Rank()] = out
		mu.Unlock()
		return nil
	})
	return ins, outs, err
}

// ckptCorruption is one row of the store-backed checkpoint audit: a fault
// plan, the runs corruptStore damages (by name) once rank 3's replica seals,
// and whether the sort must fail with ErrCheckpointCorrupt instead of
// recovering.
type ckptCorruption struct {
	name     string
	plan     fault.Plan
	targets  map[string]string
	wantFail bool
}

// checkCheckpointCorruption runs each row as a spilled P=8 sort over a
// corrupting store.  A row that recovers must sort; one that only crashed
// must also equal the in-memory fault-free run.  A row that must fail must
// fail typed — never a panic or a mis-sort.
func checkCheckpointCorruption(t *testing.T, rows []ckptCorruption) {
	t.Helper()
	const p, perRank = 8, 1024
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 5, Span: 1e9}
	_, want := runSort(t, p, spec, perRank, Config{Threads: 1}, model)

	for _, tc := range rows {
		dir := t.TempDir()
		cfg := Config{
			Threads:   1,
			MemBudget: spillBudget(perRank),
			Store:     corruptStore{Store: store.NewFS(dir), dir: dir, trigger: replicaRun(3), targets: tc.targets},
		}
		deaths := len(tc.plan.Deaths) > 0
		if deaths {
			cfg.Recovery = RecoveryShrink
		}
		ins, got, _, _, _, err := runSortShrink(t, p, spec, perRank, cfg, model, tc.plan)
		if tc.wantFail {
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("%s: want ErrCheckpointCorrupt, got %v", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkSorted(t, ins, got, !deaths, 0)
		if !deaths && !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: replica-restored output differs from the in-memory fault-free run", tc.name)
		}
		if left := runFiles(t, dir); len(left) > 0 {
			t.Errorf("%s: the sort left %d run files behind: %v", tc.name, len(left), left)
		}
	}
}

// TestDurableCheckpointCorruption drives the restore audit of the
// store-backed checkpoint — a spilled partition's primary is its partition
// run, its replica one run sealed from it at the first boundary — through
// every outcome after a crash: a truncated or bit-flipped partition run is
// re-sealed from the replica under its own name, and with both runs corrupt
// the sort surfaces ErrCheckpointCorrupt.  A resident snapshot's corrupted
// splitters and cuts are TestCheckpointCorruptFallsBackToMirror's.
func TestDurableCheckpointCorruption(t *testing.T) {
	crash := fault.Plan{Seed: 9, Crashes: []fault.Crash{{Rank: 3, Step: StepLocalSort}}}
	part, repl := partRun(3), replicaRun(3)
	checkCheckpointCorruption(t, []ckptCorruption{
		{"truncated partition run", crash, map[string]string{part: "truncate"}, false},
		{"bit-flipped partition run", crash, map[string]string{part: "bitflip"}, false},
		{"both runs corrupt", crash, map[string]string{part: "truncate", repl: "bitflip"}, true},
	})
}

// TestSpilledCheckpointCorruption is the same audit where a spilled copy is
// read back by another rank: adoption audits the dead predecessor's copies —
// a die-shrink whose victim's partition run is corrupt adopts the replica,
// and one with both runs corrupt fails typed.
func TestSpilledCheckpointCorruption(t *testing.T) {
	die := fault.Plan{Seed: 9, Deaths: []fault.Death{{Rank: 3, Step: StepLocalSort}}}
	part, repl := partRun(3), replicaRun(3)
	checkCheckpointCorruption(t, []ckptCorruption{
		{"die-shrink, victim's partition run corrupt", die, map[string]string{part: "bitflip"}, false},
		{"die-shrink, both victim runs corrupt", die, map[string]string{part: "bitflip", repl: "truncate"}, true},
	})
}

// countStore counts every call made on the store it wraps.
type countStore struct {
	store.Store
	calls *atomic.Int64
}

func (s countStore) Create(name string) (store.Writer, error) {
	s.calls.Add(1)
	return s.Store.Create(name)
}

func (s countStore) Open(name string) (store.Reader, error) {
	s.calls.Add(1)
	return s.Store.Open(name)
}

func (s countStore) Len(name string) (int64, error) {
	s.calls.Add(1)
	return s.Store.Len(name)
}

func (s countStore) Remove(name string) error {
	s.calls.Add(1)
	return s.Store.Remove(name)
}

// TestResidentCheckpointNeverTouchesStore: a resident sort checkpoints in
// memory whatever store is configured — Store (and SpillDir) only matter
// with a MemBudget — so a crash-respawn run over a counting store makes no
// store call at all and still matches the fault-free output.
func TestResidentCheckpointNeverTouchesStore(t *testing.T) {
	const p, perRank = 8, 1024
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 3, Span: 1e9}
	plan := fault.Plan{Seed: 7, Crashes: []fault.Crash{{Rank: 2, Step: StepSplitting}}}
	_, want := runSort(t, p, spec, perRank, Config{Threads: 1}, model)

	var calls atomic.Int64
	cfg := Config{Threads: 1, Store: countStore{Store: store.NewMem(), calls: &calls}}
	ins, got, _, recs := runSortFaults(t, p, spec, perRank, cfg, model, plan)
	checkSorted(t, ins, got, true, 0)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("crash-restored output differs from the fault-free run")
	}
	if s := metrics.Summarize(recs); s.Fault.Recoveries != 1 || s.Fault.Checkpoints == 0 {
		t.Fatalf("the run did not checkpoint and restore: %+v", s.Fault)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("a resident sort made %d store calls, want 0", n)
	}
}

// BenchmarkSpilledSortP4 is the wall benchmark's sort-spill op without its
// harness — P=4 ranks, 2^20 zipf keys, a 256 KiB budget (eight runs a rank)
// on a real directory — for paired runs and profiles of the spilled pipeline:
//
//	go test ./internal/core -run '^$' -bench SpilledSortP4 -benchtime 20x -cpuprofile cpu.out
func BenchmarkSpilledSortP4(b *testing.B) {
	const p, perRank = 4, 1 << 18
	spec := workload.Spec{Dist: workload.Zipf, Seed: 1, Span: 1e9}
	ins := make([][]uint64, p)
	for r := range ins {
		var err error
		if ins[r], err = spec.Rank(r, perRank); err != nil {
			b.Fatal(err)
		}
	}
	cfg := Config{MemBudget: 256 << 10, SpillDir: b.TempDir()}
	b.SetBytes(p * perRank * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := comm.NewWorld(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		err = w.Run(func(c *comm.Comm) error {
			out, err := Sort(c, ins[c.Rank()], u64, cfg)
			if err == nil && len(out) != perRank {
				err = fmt.Errorf("rank %d holds %d keys, want %d", c.Rank(), len(out), perRank)
			}
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// runFiles lists the run files under a spill root.
func runFiles(t *testing.T, root string) []string {
	t.Helper()
	var runs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".run" {
			runs = append(runs, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// TestSpilledSortLeavesNoRuns: a fault-free spilled sort used to leave every
// rank's partition run (16 B a key) in the spill directory, and a
// fault-injected one every checkpoint shard run.  Nothing survives either
// now — with eight runs a rank (on the filesystem and in a shared memory
// store, both exchanging run references), with a single run a rank (the
// partition is that run itself), on one rank, with P above the fan-in (the
// exchange stages received runs), after a crash respawn (every rank removes
// its partition and replica runs when its sort returns) and after a
// die-shrink (the adopter removes the victim's).  The one leftover still
// possible is a dead rank's runs that no survivor adopts: a death under
// respawn recovery, or two ring-adjacent deaths.  Every reader opened on the
// store is closed again — the senders' readers handed to their peers'
// merges included.
func TestSpilledSortLeavesNoRuns(t *testing.T) {
	for _, tc := range []struct {
		name       string
		p, perRank int
		budget     int64
		plan       fault.Plan
		fanIn      int
		mem        bool // a shared store.Mem instead of a spill directory
	}{
		{"eight runs a rank", 4, 4096, spillBudget(4096), fault.Plan{}, 0, false},
		{"eight runs a rank, shared memory store", 4, 4096, spillBudget(4096), fault.Plan{}, 0, true},
		{"one run a rank", 4, 512, 1 << 20, fault.Plan{}, 0, false},
		{"one rank", 1, 4096, spillBudget(4096), fault.Plan{}, 0, false},
		{"P above fan-in", 4, 4096, spillBudget(4096), fault.Plan{}, 2, false},
		{"crash respawn", 8, 2048, spillBudget(2048), fault.Plan{Seed: 7, Crashes: []fault.Crash{{Rank: 2, Step: StepSplitting}}}, 0, false},
		{"die shrink", 8, 2048, spillBudget(2048), fault.Plan{Seed: 7, Deaths: []fault.Death{{Rank: 3, Step: StepLocalSort}}}, 0, false},
	} {
		dir := t.TempDir()
		var st store.Store = store.NewFS(dir)
		if tc.mem {
			st = store.NewMem()
		}
		log := newRunLog(st)
		spec := workload.Spec{Dist: workload.Zipf, Seed: 17, Span: 1e9}
		cfg := Config{Threads: 1, MemBudget: tc.budget, Store: log, SpillFanIn: tc.fanIn}
		deaths := len(tc.plan.Deaths) > 0
		if deaths {
			cfg.Recovery = RecoveryShrink
		}
		ins, outs, _, _, _, err := runSortShrink(t, tc.p, spec, tc.perRank, cfg, nil, tc.plan)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkSorted(t, ins, outs, !deaths, 0)
		if left := runFiles(t, dir); len(left) > 0 {
			t.Errorf("%s: the sort left %d run files behind: %v", tc.name, len(left), left)
		}
		if left := log.left(); len(left) > 0 {
			t.Errorf("%s: the sort left %d runs in the store: %v", tc.name, len(left), left)
		}
		if opened, closed := log.readers.opened.Load(), log.readers.closed.Load(); opened == 0 || opened != closed {
			t.Errorf("%s: %d readers opened, %d closed", tc.name, opened, closed)
		}
	}
}

// runLog wraps a store and records, per run name, the records appended
// through it and whether the run is still there, and counts the readers
// opened on it and closed.
type runLog struct {
	store.Store
	mu      sync.Mutex
	recs    map[string]int64
	live    map[string]bool
	readers struct{ opened, closed atomic.Int64 }
}

func newRunLog(st store.Store) *runLog {
	return &runLog{Store: st, recs: map[string]int64{}, live: map[string]bool{}}
}

func (s *runLog) Create(name string) (store.Writer, error) {
	w, err := s.Store.Create(name)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.recs[name] += 0
	s.live[name] = true
	s.mu.Unlock()
	return &runLogWriter{Writer: w, log: s, name: name}, nil
}

func (s *runLog) Open(name string) (store.Reader, error) {
	r, err := s.Store.Open(name)
	if err != nil {
		return nil, err
	}
	s.readers.opened.Add(1)
	return runLogReader{Reader: r, log: s}, nil
}

func (s *runLog) Remove(name string) error {
	s.mu.Lock()
	delete(s.live, name)
	s.mu.Unlock()
	return s.Store.Remove(name)
}

// left returns the runs created and not removed since.
func (s *runLog) left() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for name := range s.live {
		names = append(names, name)
	}
	return names
}

// written returns the runs created whose name contains sub, and the records
// appended to them.
func (s *runLog) written(sub string) (runs int, recs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, n := range s.recs {
		if strings.Contains(name, sub) {
			runs++
			recs += n
		}
	}
	return runs, recs
}

type runLogWriter struct {
	store.Writer
	log  *runLog
	name string
}

func (w *runLogWriter) Append(recs []xmath.U128) error {
	w.log.mu.Lock()
	w.log.recs[w.name] += int64(len(recs))
	w.log.mu.Unlock()
	return w.Writer.Append(recs)
}

type runLogReader struct {
	store.Reader
	log *runLog
}

func (r runLogReader) Close() error {
	r.log.readers.closed.Add(1)
	return r.Reader.Close()
}

// TestSpilledExchangeSendsReferences pins the reference row of the exchange
// selection: with P within the fan-in — whatever the store, run-private
// included, and under every fault plan — no received-segment run (rx*) is
// created and each key is written exactly twice (local-sort run, partition
// run), because each sender hands its peers span references with readers it
// opened on its own partition run.  P above the fan-in keeps staging
// received segments as runs.  A crash plan's checkpoint copies each rank's
// partition once, into its replica run.  Every row sorts, and every row
// without a death sorts like the resident run.
func TestSpilledExchangeSendsReferences(t *testing.T) {
	const p, perRank = 4, 4096 // eight local-sort runs a rank
	spec := workload.Spec{Dist: workload.Zipf, Seed: 5, Span: 1e9}
	_, want := runSort(t, p, spec, perRank, Config{Threads: 1}, nil)
	for _, tc := range []struct {
		name         string
		shared, refs bool
		fanIn        int
		plan         fault.Plan
	}{
		{"references", true, true, 0, fault.Plan{}},
		{"run-private store", false, true, 0, fault.Plan{}},
		{"P above fan-in", true, false, 2, fault.Plan{}},
		{"crash plan", true, true, 0, fault.Plan{Seed: 7, Crashes: []fault.Crash{{Rank: 1, Step: StepSplitting}}}},
		{"message faults", true, true, 0, fault.Plan{Seed: 7, DropRate: 0.05, DupRate: 0.05}},
		{"die shrink", true, true, 0, fault.Plan{Seed: 7, Deaths: []fault.Death{{Rank: 2, Step: StepSplitting}}}},
	} {
		log := newRunLog(store.NewMem())
		cfg := Config{Threads: 1, MemBudget: spillBudget(perRank), SpillFanIn: tc.fanIn}
		if tc.shared {
			cfg.Store = log
		}
		deaths := len(tc.plan.Deaths) > 0
		if deaths {
			cfg.Recovery = RecoveryShrink
		}
		ins, got, _, recs, _, err := runSortShrink(t, p, spec, perRank, cfg, nil, tc.plan)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkSorted(t, ins, got, !deaths, 0)
		if !deaths && !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: spilled output differs from the resident run", tc.name)
		}
		rx, _ := log.written("/rx")
		if !tc.refs {
			if rx == 0 {
				t.Errorf("%s: the exchange created no received-segment run", tc.name)
			}
			continue
		}
		if rx > 0 {
			t.Errorf("%s: the exchange created %d received-segment runs, want none", tc.name, rx)
		}
		if deaths {
			continue // the survivors sort the victim's keys again
		}
		// The recorder sees a run-private store too.
		if spilled, want := metrics.Summarize(recs).SpillBytes, int64(2*p*perRank*store.RecordBytes); spilled != want {
			t.Errorf("%s: recorded %d spilled bytes, want %d", tc.name, spilled, want)
		}
		for w := 0; tc.shared && w < p; w++ {
			if _, n := log.written(spillPrefix(w) + "/"); n != 2*perRank {
				t.Errorf("%s: rank %d wrote %d records, want 2 × %d", tc.name, w, n, perRank)
			}
			if len(tc.plan.Crashes) == 0 {
				continue
			}
			if runs, n := log.written(fmt.Sprintf("ckpt/w%d.", w)); runs != 1 || n != perRank {
				t.Errorf("%s: rank %d copied its partition into %d checkpoint runs, %d records; want 1 run, %d", tc.name, w, runs, n, perRank)
			}
		}
		if runs, _ := log.written(".p"); runs > 0 {
			t.Errorf("%s: the checkpoint sealed %d primary copies, want none", tc.name, runs)
		}
	}
}

// appendFailStore fails the n-th Append made through it.
type appendFailStore struct {
	store.Store
	left int
}

var errAppend = errors.New("append failed")

func (s *appendFailStore) Create(name string) (store.Writer, error) {
	w, err := s.Store.Create(name)
	if err != nil {
		return nil, err
	}
	return &appendFailWriter{Writer: w, st: s}, nil
}

type appendFailWriter struct {
	store.Writer
	st *appendFailStore
}

func (w *appendFailWriter) Append(recs []xmath.U128) error {
	if w.st.left--; w.st.left == 0 {
		return errAppend
	}
	return w.Writer.Append(recs)
}

// TestFailedRunWriteLeavesNoRun: a run whose write fails part-way is removed,
// not sealed short, on both backings — for a key run and, through the local
// sort, for everything a rank had sealed before the failure.
func TestFailedRunWriteLeavesNoRun(t *testing.T) {
	ks := make([]uint64, 3*spillBlock)
	for i := range ks {
		ks[i] = uint64(i)
	}
	dir := t.TempDir()
	for label, st := range map[string]store.Store{"mem": store.NewMem(), "fs": store.NewFS(dir)} {
		err := writeRunKeys(&appendFailStore{Store: st, left: 2}, "out", ks, newImageCodec[uint64](u64))
		if !errors.Is(err, errAppend) {
			t.Fatalf("%s: writeRunKeys = %v, want the injected failure", label, err)
		}
		if _, err := st.Open("out"); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("%s: Open(out) after a failed write = %v, want ErrNotFound", label, err)
		}
	}

	// The third Append of this one-rank spilled sort is its third local-sort
	// run (64 keys a run): the two sealed before it must go too.
	cfg := Config{Threads: 1, MemBudget: spillBudget(512), Store: &appendFailStore{Store: store.NewFS(dir), left: 3}}
	_, _, err := runSortErr(t, 1, workload.Spec{Dist: workload.Uniform, Seed: 2, Span: 1e9}, 4096, cfg, nil, fault.Plan{})
	if !errors.Is(err, errAppend) {
		t.Fatalf("spilled sort over a failing store = %v, want the injected failure", err)
	}
	if left := runFiles(t, dir); len(left) > 0 {
		t.Errorf("the failed sort left %d run files behind: %v", len(left), left)
	}
}

// openFailStore fails every Open of a partition run but the first, the one
// the searches read through: what fails is the exchange's readers.
type openFailStore struct {
	store.Store
	mu   sync.Mutex
	seen map[string]bool
}

var errOpen = errors.New("open failed")

func (s *openFailStore) Open(name string) (store.Reader, error) {
	s.mu.Lock()
	again := s.seen[name]
	s.seen[name] = true
	s.mu.Unlock()
	if again && strings.HasSuffix(name, "/part") {
		return nil, errOpen
	}
	return s.Store.Open(name)
}

// TestSpanReaderOpenFailureIsAnError: a sender that cannot open the reader
// it owes a peer on its partition run returns the failure from Sort instead
// of panicking, and the failed sort leaves no run behind.
func TestSpanReaderOpenFailureIsAnError(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Threads: 1, MemBudget: spillBudget(4096), Store: &openFailStore{Store: store.NewFS(dir), seen: map[string]bool{}}}
	_, _, err := runSortErr(t, 4, workload.Spec{Dist: workload.Uniform, Seed: 2, Span: 1e9}, 4096, cfg, nil, fault.Plan{})
	if !errors.Is(err, errOpen) {
		t.Fatalf("spilled sort over a store failing the exchange's opens = %v, want the injected failure", err)
	}
	if left := runFiles(t, dir); len(left) > 0 {
		t.Errorf("the failed sort left %d run files behind: %v", len(left), left)
	}
}

// seekCountStore counts the SeekRecord calls made on its readers.
type seekCountStore struct {
	store.Store
	seeks *int
}

func (s seekCountStore) Open(name string) (store.Reader, error) {
	r, err := s.Store.Open(name)
	if err != nil {
		return nil, err
	}
	return seekCountReader{Reader: r, seeks: s.seeks}, nil
}

type seekCountReader struct {
	store.Reader
	seeks *int
}

func (r seekCountReader) SeekRecord(rec int64) error {
	*r.seeks++
	return r.Reader.SeekRecord(rec)
}

// TestExtPartitionBoundsReadsTwoBlocks pins what the fence buys: whatever the
// window, a Bounds call over a 64-block partition reads at most two blocks
// (the one holding l, the one holding u), where the plain binary search read
// one per probe that left the cached block.
func TestExtPartitionBoundsReadsTwoBlocks(t *testing.T) {
	ks := make([]uint64, 64*extBlock)
	for i := range ks {
		ks[i] = uint64(i / 700) // runs of 700 equal keys: l and u in different blocks
	}
	seeks := 0
	st := &fenceStore{Store: seekCountStore{Store: store.NewMem(), seeks: &seeks}, name: "part"}
	codec := newImageCodec[uint64](u64)
	if err := writeRunKeys(st, "part", ks, codec); err != nil {
		t.Fatal(err)
	}
	part, err := openExtPartition(st, "part", codec, st.w.fence)
	if err != nil {
		t.Fatal(err)
	}
	defer part.Close()
	mem := newMemSource(ks, u64, nil)
	for _, k := range []uint64{0, 1, 17, 23, 46, 9, 999} {
		before := seeks
		l, u := part.Bounds(k, 0, len(ks))
		if wl, wu := mem.Bounds(k, 0, len(ks)); l != wl || u != wu {
			t.Fatalf("Bounds(%d) = (%d, %d), want (%d, %d)", k, l, u, wl, wu)
		}
		if got := seeks - before; got > 2 {
			t.Errorf("Bounds(%d) read %d blocks, want at most 2", k, got)
		}
	}
}

// fileLog wraps a filesystem store and records, as each run seals, its
// record count and the byte size of its file.
type fileLog struct {
	*store.FS
	mu   sync.Mutex
	runs []sealedRun
}

type sealedRun struct {
	name        string
	recs, bytes int64
}

func (s *fileLog) Create(name string) (store.Writer, error) {
	w, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &fileLogWriter{Writer: w, log: s, name: name}, nil
}

type fileLogWriter struct {
	store.Writer
	log  *fileLog
	name string
	recs int64
}

func (w *fileLogWriter) Append(recs []xmath.U128) error {
	w.recs += int64(len(recs))
	return w.Writer.Append(recs)
}

func (w *fileLogWriter) Close() error {
	if err := w.Writer.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(filepath.Join(w.log.Root(), filepath.FromSlash(w.name)+".run"))
	if err != nil {
		return err
	}
	w.log.mu.Lock()
	w.log.runs = append(w.log.runs, sealedRun{w.name, w.recs, fi.Size()})
	w.log.mu.Unlock()
	return nil
}

// dhs3Footer is the byte size of a run file's footer.
const dhs3Footer = 32

// TestSpilledRunsNarrow pins what the spilled path costs on disk.  At
// sort-spill's shape (P = 4, 2^20 zipf uint64 keys, a 256 KiB budget) every
// run holds 64-bit key images, so every file is the footer plus 8 bytes a
// record: 16 MiB of run data an op where the records are 32 MiB.  The spill
// counters keep counting 16-byte API records, whatever the backing writes.
// Under ForceUnique the images carry a (rank, index) suffix in the low word,
// so a run goes wide at its first nonzero suffix: at most one narrow record.
func TestSpilledRunsNarrow(t *testing.T) {
	const p, perRank = 4, 1 << 18
	spec := workload.Spec{Dist: workload.Zipf, Seed: 1, Span: 1e9}
	for _, unique := range []bool{false, true} {
		log := &fileLog{FS: store.NewFS(t.TempDir())}
		cfg := Config{Threads: 1, MemBudget: 256 << 10, Store: log, ForceUnique: unique}
		ins, outs, _, recs := runSortClocked(t, p, spec, perRank, cfg, nil)
		checkSorted(t, ins, outs, true, 0)
		var data, total int64
		for _, r := range log.runs {
			narrow := (dhs3Footer + store.RecordBytes*r.recs - r.bytes) / 8 // size = footer + 8·narrow + 16·(recs − narrow)
			if !unique && narrow != r.recs || unique && narrow > 1 {
				t.Errorf("unique=%v: run %s holds %d records in %d bytes: %d narrow", unique, r.name, r.recs, r.bytes, narrow)
			}
			data += r.bytes - dhs3Footer
			total += r.recs
		}
		if len(log.runs) == 0 || !unique && total != 2*p*perRank {
			t.Fatalf("unique=%v: %d runs hold %d records, want 2 × %d", unique, len(log.runs), total, p*perRank)
		}
		if spilled := metrics.Summarize(recs).SpillBytes; spilled != total*store.RecordBytes {
			t.Errorf("unique=%v: recorded %d spilled bytes, want %d (16 a record)", unique, spilled, total*store.RecordBytes)
		}
		if !unique && data != 16<<20 {
			t.Errorf("the runs hold %d bytes of data, want 16 MiB", data)
		}
	}
}
