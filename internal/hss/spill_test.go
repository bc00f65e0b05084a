package hss

import (
	"errors"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/metrics"
	"dhsort/internal/store"
	"dhsort/internal/workload"
	"dhsort/internal/xmath"
)

// TestHSSSpilledMatchesResident: under a MemBudget of an eighth of a rank's
// keys, HSS sorts its partition into store runs and samples, searches and
// exchanges through them.  The spilled path only runs on lossless keys, so
// its output must equal the resident run's key for key — on every backing
// and through a multi-pass merge.
func TestHSSSpilledMatchesResident(t *testing.T) {
	const perRank = 1024
	for _, p := range []int{1, 4, 5} {
		for _, d := range []workload.Distribution{workload.Zipf, workload.DuplicateHeavy} {
			spec := workload.Spec{Dist: d, Seed: uint64(p), Span: 1e9}
			_, want := runIt(t, p, perRank, spec, Config{Seed: 9}, nil)
			for _, tc := range []struct {
				name string
				cfg  Config
			}{
				{"mem store", Config{Store: store.NewMem()}},
				{"fs store", Config{SpillDir: t.TempDir()}},
				{"fan-in 2", Config{SpillDir: t.TempDir(), SpillFanIn: 2}},
			} {
				cfg := tc.cfg
				cfg.Seed, cfg.MemBudget = 9, perRank
				ins, got, recs := runRecorded(t, p, perRank, spec, cfg, nil)
				checkOutput(t, ins, got, true)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("p=%d %s %s: spilled output differs from the resident run", p, d, tc.name)
				}
				if s := metrics.Summarize(recs); s.SpilledRuns < int64(8*p) {
					t.Errorf("p=%d %s %s: %d spilled runs, want the local sort's %d at least", p, d, tc.name, s.SpilledRuns, 8*p)
				}
			}
		}
	}
}

// TestHSSSpilledLeavesNoRuns is core's TestSpilledSortLeavesNoRuns for HSS:
// nothing survives a spilled sort in the spill directory.
func TestHSSSpilledLeavesNoRuns(t *testing.T) {
	for _, tc := range []struct {
		name       string
		p, perRank int
		budget     int64
	}{
		{"eight runs a rank", 4, 4096, 4096},
		{"one run a rank", 4, 512, 1 << 20},
		{"one rank", 1, 4096, 4096},
	} {
		dir := t.TempDir()
		spec := workload.Spec{Dist: workload.Zipf, Seed: 17, Span: 1e9}
		ins, outs := runIt(t, tc.p, tc.perRank, spec, Config{Seed: 3, Threads: 1, MemBudget: tc.budget, SpillDir: dir}, nil)
		checkOutput(t, ins, outs, true)
		if left := runFiles(t, dir); len(left) > 0 {
			t.Errorf("%s: the sort left %d run files behind: %v", tc.name, len(left), left)
		}
	}
}

// rxFailStore fails every Append to an exchange receive run.
type rxFailStore struct{ store.Store }

var errAppend = errors.New("append failed")

func (s rxFailStore) Create(name string) (store.Writer, error) {
	w, err := s.Store.Create(name)
	if err != nil || !strings.HasPrefix(path.Base(name), "rx") {
		return w, err
	}
	return failWriter{w}, nil
}

type failWriter struct{ store.Writer }

func (failWriter) Append([]xmath.U128) error { return errAppend }

// TestHSSFailingSpillStore: a store write that fails in the spilled exchange
// comes back from Sort as an error — it used to panic — and the failed sort
// leaves no run files behind.  P above the fan-in keeps the exchange staging
// its received segments as runs; within it, a shared store takes the
// reference row, which writes none.
func TestHSSFailingSpillStore(t *testing.T) {
	const p, perRank = 4, 4096
	dir := t.TempDir()
	cfg := Config{Seed: 3, Threads: 1, MemBudget: perRank, SpillFanIn: 2, Store: rxFailStore{store.NewFS(dir)}}
	spec := workload.Spec{Dist: workload.Uniform, Seed: 2, Span: 1e9}
	w, err := comm.NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var errs []error
	runErr := w.Run(func(c *comm.Comm) error {
		local, err := spec.Rank(c.Rank(), perRank)
		if err != nil {
			return err
		}
		_, err = Sort(c, local, u64, cfg)
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
		return err
	})
	if runErr == nil || len(errs) == 0 {
		t.Fatalf("sort over a failing store: world error %v, %d ranks returned", runErr, len(errs))
	}
	for _, err := range errs {
		if !errors.Is(err, errAppend) {
			t.Errorf("Sort = %v, want the injected failure", err)
		}
	}
	if left := runFiles(t, dir); len(left) > 0 {
		t.Errorf("the failed sort left %d run files behind: %v", len(left), left)
	}
}

// TestHSSConfigValidation: HSS rejects what core.Sort rejects, before any
// superstep runs, and keeps clamping Probes to core.MaxProbes.
func TestHSSConfigValidation(t *testing.T) {
	sortWith := func(cfg Config) error {
		w, err := comm.NewWorld(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		return w.Run(func(c *comm.Comm) error {
			_, err := Sort(c, []uint64{3, 1, 2}, u64, cfg)
			return err
		})
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"unknown recovery", Config{Recovery: "bogus"}},
		{"negative budget", Config{MemBudget: -1}},
		{"fan-in one", Config{SpillFanIn: 1}},
		{"negative threads", Config{Threads: -1}},
		{"shrink budget without shared store", Config{MemBudget: 1 << 20, Recovery: core.RecoveryShrink}},
	} {
		if err := sortWith(tc.cfg); err == nil {
			t.Errorf("%s: Sort accepted %+v", tc.name, tc.cfg)
		}
	}
	if err := sortWith(Config{Probes: core.MaxProbes + 1}); err != nil {
		t.Errorf("Probes above core.MaxProbes must clamp, got %v", err)
	}
}

// runFiles lists the run files under a spill root.
func runFiles(t *testing.T, root string) []string {
	t.Helper()
	var runs []string
	err := filepath.WalkDir(root, func(file string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(file) == ".run" {
			runs = append(runs, file)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return runs
}
