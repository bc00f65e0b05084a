package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dhsort"
	"dhsort/internal/api"
	"dhsort/internal/bench"
	"dhsort/internal/server"
)

// TestMain lets a test re-execute its own binary as the dhsort command:
// with DHSORT_RUN_MAIN set, the process runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("DHSORT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// badSettings is one table of settings that every entry point must refuse:
// the configuration itself, the service's submit endpoint and the CLI.
// cfg is the setting as Config.Validate sees it — an unknown merge or
// exchange name can only reach it as the value no name decodes to; nil where
// the setting is the run's shape, not the configuration; spec is
// the same setting as JobSpec fields, empty where the service has no such
// setting; flags is the same setting on the dhsort command line.
var badSettings = []struct {
	name  string
	cfg   *dhsort.Config
	spec  string
	flags []string
}{
	{"negative epsilon", &dhsort.Config{Epsilon: -0.5}, `"epsilon": -0.5`, []string{"-eps", "-0.5"}},
	{"probes above the cap", &dhsort.Config{Probes: dhsort.MaxProbes + 1}, `"probes": 65`, []string{"-probes", "65"}},
	{"unknown kernel", &dhsort.Config{Kernel: "nope"}, `"kernel": "nope"`, []string{"-kernel", "nope"}},
	{"unknown recovery", &dhsort.Config{Recovery: "nope"}, `"recovery": "nope"`, []string{"-recovery", "nope"}},
	{"negative threads", &dhsort.Config{Threads: -1}, `"threads": -1`, []string{"-threads", "-1"}},
	{"negative mem budget", &dhsort.Config{MemBudget: -1}, `"mem_budget": -1`, []string{"-mem-budget", "-1"}},
	{"fan-in one", &dhsort.Config{MemBudget: 4096, SpillFanIn: 1}, "", []string{"-mem-budget", "4096", "-spill-fan-in", "1"}},
	{"unknown merge", &dhsort.Config{Merge: dhsort.MergeOverlap + 1}, `"merge": "nope"`, []string{"-merge", "nope"}},
	{"deleted merge", &dhsort.Config{Merge: dhsort.MergeOverlap + 1}, `"merge": "loser-tree"`, []string{"-merge", "loser-tree"}},
	{"unknown exchange", &dhsort.Config{Exchange: dhsort.ExchangeRMAPut + 1}, `"exchange": "nope"`, []string{"-exchange", "nope"}},
	{"unknown distribution", nil, `"dist": "nope"`, []string{"-dist", "nope"}},
	{"unknown algorithm", nil, "", []string{"-alg", "nope"}},
	{"no ranks", nil, "", []string{"-p", "0"}},
	{"negative key count", nil, "", []string{"-n", "-1"}},
}

func TestBadSettingsRejectedEverywhere(t *testing.T) {
	s := server.New(server.Config{P: 2, Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(api.Handler(s))
	defer srv.Close()

	for _, tc := range badSettings {
		t.Run(strings.ReplaceAll(tc.name, " ", "-"), func(t *testing.T) {
			if tc.cfg != nil && tc.cfg.Validate() == nil {
				t.Errorf("Config.Validate accepted %+v", *tc.cfg)
			}

			if tc.spec != "" {
				resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
					strings.NewReader(`{"n": 64, `+tc.spec+`}`))
				if err != nil {
					t.Fatal(err)
				}
				var rej server.Reject
				derr := json.NewDecoder(resp.Body).Decode(&rej)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest || derr != nil || rej.Reason != "bad_request" {
					t.Errorf("POST /v1/jobs {%s}: HTTP %d %+v (%v), want 400 bad_request", tc.spec, resp.StatusCode, rej, derr)
				}
			}

			// A setting that slipped through would sort the keys and exit 0;
			// one checked only once the ranks run would exit 1.
			out, err := runMain(append([]string{"-p", "2", "-n", "64"}, tc.flags...)...)
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Errorf("dhsort %s: %v, want exit status 2\n%s", strings.Join(tc.flags, " "), err, out)
			}
		})
	}
}

// runMain runs the dhsort command on args in a child process.
func runMain(args ...string) ([]byte, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DHSORT_RUN_MAIN=1")
	return cmd.CombinedOutput()
}

// Every algorithm of the sorter table sorts through the CLI: exit 0 and the
// same dump as dhsort's (the dump is the global order, whoever holds it).
func TestEveryAlgorithmSorts(t *testing.T) {
	dir := t.TempDir()
	dump := func(t *testing.T, alg string) []byte {
		t.Helper()
		f := filepath.Join(dir, alg+".txt")
		if out, err := runMain("-alg", alg, "-p", "8", "-n", "4096", "-model", "pgas", "-threads", "1", "-dump", f); err != nil {
			t.Fatalf("dhsort -alg %s: %v\n%s", alg, err, out)
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := dump(t, "dhsort")
	if n := bytes.Count(want, []byte("\n")); n != 4096 {
		t.Fatalf("dhsort dumped %d keys, want 4096", n)
	}
	for name := range bench.Sorters {
		t.Run(name, func(t *testing.T) {
			if !bytes.Equal(dump(t, name), want) {
				t.Errorf("-alg %s dumped a different global order than -alg dhsort", name)
			}
		})
	}
}
