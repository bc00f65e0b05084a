// Service-client subcommands: dhsort doubles as the CLI client of a
// dhsortd sort server.
//
//	dhsort submit -server http://host:8080 -n 100000 -dist zipf -wait
//	dhsort submit -keys-file data.txt          # inline keys, one per line
//	dhsort status j-000001
//	dhsort result j-000001 > sorted.txt
//	dhsort health
//	dhsort stats
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"flag"

	"dhsort/internal/server"
)

// defaultServer resolves the server base URL: -server flag, DHSORT_SERVER
// env, then localhost.
func defaultServer() string {
	if s := os.Getenv("DHSORT_SERVER"); s != "" {
		return s
	}
	return "http://127.0.0.1:8080"
}

// runClientCommand dispatches a service subcommand; ok=false means cmd is
// not a subcommand and the caller should run the local sorter.
func runClientCommand(cmd string, args []string) (code int, ok bool) {
	switch cmd {
	case "submit":
		return clientSubmit(args), true
	case "status":
		return clientStatus(args), true
	case "result":
		return clientResult(args), true
	case "health":
		return clientGetJSON(args, "/healthz"), true
	case "stats":
		return clientGetJSON(args, "/v1/metrics"), true
	}
	return 0, false
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "dhsort:", err)
	return 1
}

// decodeErr turns a non-2xx response into a readable error.
func decodeErr(resp *http.Response) error {
	var rej server.Reject
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(body, &rej) == nil && rej.Reason != "" {
		return fmt.Errorf("HTTP %d: %s: %s", resp.StatusCode, rej.Reason, rej.Detail)
	}
	return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
}

func clientSubmit(args []string) int {
	fs := flag.NewFlagSet("dhsort submit", flag.ExitOnError)
	var (
		srv    = fs.String("server", defaultServer(), "server base URL")
		tenant = fs.String("tenant", "", "tenant name (X-Tenant header)")
		keysF  = fs.String("keys-file", "", "inline keys, one decimal per line (\"-\" = stdin)")
		wait   = fs.Bool("wait", false, "poll until the job finishes; exit nonzero unless done and verified")
		tmo    = fs.Duration("timeout", 5*time.Minute, "poll deadline with -wait")
		retry  = fs.Int("retries", 0, "resubmit attempts after a retryable rejection (429 queue_full/quota_exceeded, 503 draining); 0 = fail immediately")
		maxBk  = fs.Duration("max-wait", 30*time.Second, "cap on a single retry backoff")
		spec   server.JobSpec
	)
	// The job flags bind straight into the spec; the server fills the
	// defaults of what is left zero and validates the rest.
	fs.IntVar(&spec.N, "n", 0, "generated workload size (exclusive with -keys-file)")
	fs.StringVar(&spec.Dist, "dist", "", "workload distribution")
	fs.Uint64Var(&spec.Seed, "seed", 0, "workload seed")
	fs.Uint64Var(&spec.Span, "span", 0, "workload key span")
	fs.IntVar(&spec.P, "p", 0, "world size (0 = server default)")
	fs.TextVar(&spec.Exchange, "exchange", spec.Exchange, "data exchange algorithm")
	fs.TextVar(&spec.Merge, "merge", spec.Merge, "local merge strategy")
	fs.StringVar(&spec.Model, "model", "", "cost model: none|pgas|mpi")
	fs.IntVar(&spec.Threads, "threads", 0, "intra-rank worker budget")
	fs.StringVar(&spec.Kernel, "kernel", "", "local sort kernel")
	fs.Float64Var(&spec.Epsilon, "eps", 0, "load-balance threshold")
	fs.IntVar(&spec.Probes, "probes", 0, "histogram probes per unfinished splitter per round (0/1 = bisection)")
	fs.StringVar(&spec.Fault, "fault", "", "seeded fault schedule")
	fs.StringVar(&spec.Recovery, "recovery", "", "die= recovery: respawn|shrink")
	fs.BoolVar(&spec.NoBatch, "no-batch", false, "opt out of job batching")
	fs.BoolVar(&spec.Spill, "spill", false, "run the job out-of-core against a per-job scratch store")
	fs.Int64Var(&spec.MemBudget, "mem-budget", 0, "per-rank in-memory budget in bytes (implies -spill; 0 with -spill = an eighth of the per-rank input)")
	fs.Parse(args)

	if *keysF != "" {
		ks, err := readKeys(*keysF)
		if err != nil {
			return fail(err)
		}
		spec.Keys = ks
	}

	body, err := json.Marshal(spec)
	if err != nil {
		return fail(err)
	}
	var resp *http.Response
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest("POST", *srv+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return fail(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if *tenant != "" {
			req.Header.Set("X-Tenant", *tenant)
		}
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			return fail(err)
		}
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		// 429 (queue_full / quota_exceeded) and 503 (draining) are
		// backpressure, not failure: back off and resubmit, preferring the
		// server's own Retry-After over the exponential schedule.
		retryable := resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable
		rerr := decodeErr(resp)
		ra := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if !retryable || attempt >= *retry {
			return fail(rerr)
		}
		d := submitBackoff(attempt, ra, *maxBk)
		fmt.Fprintf(os.Stderr, "dhsort: %v; retry %d/%d in %v\n",
			rerr, attempt+1, *retry, d.Round(time.Millisecond))
		time.Sleep(d)
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fail(err)
	}
	// The job id goes to stdout alone so scripts can capture it.
	fmt.Println(st.ID)
	if !*wait {
		return 0
	}

	deadline := time.Now().Add(*tmo)
	for time.Now().Before(deadline) {
		st, err = fetchStatus(*srv, st.ID)
		if err != nil {
			return fail(err)
		}
		if st.State == server.StateDone || st.State == server.StateFailed {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	switch {
	case st.State == server.StateDone && st.Verified:
		fmt.Fprintf(os.Stderr, "dhsort: job %s done: n=%d p=%d alg=%s batched=%v pool_hit=%v spilled=%v verified=%v makespan=%v\n",
			st.ID, st.N, st.P, st.Algorithm, st.Batched, st.PoolHit, st.Spilled, st.Verified,
			time.Duration(st.MakespanNS).Round(time.Microsecond))
		return 0
	case st.State == server.StateDone:
		fmt.Fprintf(os.Stderr, "dhsort: job %s done but NOT verified\n", st.ID)
		return 1
	case st.State == server.StateFailed:
		fmt.Fprintf(os.Stderr, "dhsort: job %s failed: %s\n", st.ID, st.Error)
		return 1
	default:
		fmt.Fprintf(os.Stderr, "dhsort: job %s still %s after %v\n", st.ID, st.State, *tmo)
		return 1
	}
}

// submitBackoff computes one retry delay: the server's Retry-After when it
// sent one, otherwise exponential from 200ms — either way capped at max and
// spread with ±25% jitter so a herd of rejected clients desynchronizes
// instead of hammering the queue in lockstep.
func submitBackoff(attempt int, retryAfter string, max time.Duration) time.Duration {
	if attempt > 20 {
		attempt = 20 // the shift below would overflow
	}
	d := 200 * time.Millisecond << uint(attempt)
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > max {
		d = max
	}
	d += time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

func readKeys(path string) ([]uint64, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var keys []uint64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		k, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("keys file %s: %w", path, err)
		}
		keys = append(keys, k)
	}
	return keys, sc.Err()
}

func fetchStatus(srv, id string) (server.JobStatus, error) {
	var st server.JobStatus
	resp, err := http.Get(srv + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, decodeErr(resp)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func clientStatus(args []string) int {
	fs := flag.NewFlagSet("dhsort status", flag.ExitOnError)
	srv := fs.String("server", defaultServer(), "server base URL")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dhsort status [-server URL] <job-id>")
		return 2
	}
	resp, err := http.Get(*srv + "/v1/jobs/" + fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(decodeErr(resp))
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	if err != nil {
		return fail(err)
	}
	return 0
}

func clientResult(args []string) int {
	fs := flag.NewFlagSet("dhsort result", flag.ExitOnError)
	srv := fs.String("server", defaultServer(), "server base URL")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dhsort result [-server URL] <job-id>")
		return 2
	}
	resp, err := http.Get(*srv + "/v1/jobs/" + fs.Arg(0) + "/result")
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(decodeErr(resp))
	}
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		return fail(err)
	}
	return 0
}

func clientGetJSON(args []string, path string) int {
	fs := flag.NewFlagSet("dhsort "+strings.TrimLeft(path, "/"), flag.ExitOnError)
	srv := fs.String("server", defaultServer(), "server base URL")
	fs.Parse(args)
	resp, err := http.Get(*srv + path)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(decodeErr(resp))
	}
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		return fail(err)
	}
	return 0
}
