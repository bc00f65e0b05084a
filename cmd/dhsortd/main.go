// Command dhsortd serves the distributed histogram sort as a multi-tenant
// job service: a JSON HTTP API over a bounded admission queue, per-tenant
// token-bucket quotas, and a pool of warm persistent worlds that are reused
// — and shared, via job batching — across jobs.  With -autoscale the
// default world size follows load: sustained queue pressure grows pooled
// worlds in place (rank join + grow collective), idleness shrinks them back.
//
//	dhsortd -addr :8080 -p 8 -workers 2
//	dhsortd -autoscale -autoscale-max-p 16 -idle-ttl 1m
//	dhsort submit -server http://127.0.0.1:8080 -n 100000 -wait
//
// Endpoints: POST /v1/jobs, GET /v1/jobs/{id}, GET /v1/jobs/{id}/result,
// GET /v1/metrics, GET /healthz.  On SIGTERM the server drains: new
// submissions get 503 + Retry-After while admitted work finishes, bounded
// by -drain-timeout.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dhsort/internal/api"
	"dhsort/internal/server"
)

// Connection timeouts.  A client gets readHeaderTimeout to send its
// request headers and a keep-alive connection is closed after idleTimeout
// without a request, so stalled or abandoned connections cannot pin
// goroutines.  There is deliberately no WriteTimeout: it would cut long
// /result streams mid-body.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		addrFile = flag.String("addr-file", "", "write the resolved listen address to this file (for scripts binding port 0)")
		p        = flag.Int("p", 8, "default world size for jobs that don't request one")
		maxP     = flag.Int("max-p", 64, "largest accepted per-job world size")
		workers  = flag.Int("workers", 2, "concurrent job executors")
		queue    = flag.Int("queue", 64, "admission queue depth (full = 429)")
		poolIdle = flag.Int("pool-idle", 2, "warm worlds kept idle per (p, model) shape")
		qRate    = flag.Float64("quota-rate", 5, "per-tenant refill rate, jobs/second")
		qBurst   = flag.Float64("quota-burst", 10, "per-tenant burst")
		maxN     = flag.Int("max-n", 1<<22, "largest accepted job in keys (413 above)")
		batchKey = flag.Int("batch-keys", 4096, "batch-eligibility threshold in keys")
		batchMax = flag.Int("batch-max", 8, "most jobs per shared world run")
		batchW   = flag.Duration("batch-wait", 2*time.Millisecond, "linger for batch stragglers")
		ring     = flag.Int("metrics-ring", 64, "per-job metrics documents retained on /v1/metrics")
		scratch  = flag.String("scratch", "", "root directory for spilled jobs' per-job run stores (empty = system temp dir)")
		drainT   = flag.Duration("drain-timeout", 30*time.Second, "SIGTERM drain: how long to let admitted jobs finish before exiting")

		autoscale = flag.Bool("autoscale", false, "scale the default world size with load (grow/shrink pooled worlds in place)")
		asMinP    = flag.Int("autoscale-min-p", 0, "autoscaler floor (0 = -p)")
		asMaxP    = flag.Int("autoscale-max-p", 0, "autoscaler ceiling (0 = twice the floor, capped at -max-p)")
		asStep    = flag.Int("autoscale-step", 4, "ranks joined/removed per scale action")
		asQueue   = flag.Int("grow-queue", 2, "queued jobs counted as admission pressure")
		asImb     = flag.Float64("grow-imbalance", 1.5, "time-imbalance factor counted as pressure")
		asSustain = flag.Int("sustain", 3, "consecutive pressured samples before a grow")
		asIdle    = flag.Duration("idle-ttl", 30*time.Second, "continuous idle before a shrink")
		asCool    = flag.Duration("cooldown", 10*time.Second, "minimum spacing between scale actions")
		asInt     = flag.Duration("scale-interval", 500*time.Millisecond, "autoscaler sampling period")
	)
	flag.Parse()

	eng := server.New(server.Config{
		P: *p, MaxP: *maxP, Workers: *workers, QueueDepth: *queue,
		PoolIdle: *poolIdle, QuotaRate: *qRate, QuotaBurst: *qBurst,
		MaxN: *maxN, BatchMaxKeys: *batchKey, BatchMax: *batchMax,
		BatchWait: *batchW, MetricsRing: *ring, ScratchDir: *scratch,
		Autoscale: server.AutoscaleConfig{
			Enabled: *autoscale, MinP: *asMinP, MaxP: *asMaxP, Step: *asStep,
			GrowQueue: *asQueue, GrowImbalance: *asImb, Sustain: *asSustain,
			IdleTTL: *asIdle, Cooldown: *asCool, Interval: *asInt,
		},
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("dhsortd: %v", err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatalf("dhsortd: write -addr-file: %v", err)
		}
	}
	log.Printf("dhsortd: serving on %s (p=%d workers=%d queue=%d autoscale=%v)", ln.Addr(), *p, *workers, *queue, *autoscale)

	httpSrv := &http.Server{
		Handler:           api.Handler(eng),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("dhsortd: %v, draining (timeout %v)", sig, *drainT)
	case err := <-errc:
		log.Fatalf("dhsortd: %v", err)
	}

	// Graceful drain: stop admitting (submissions now get 503 +
	// Retry-After) but keep serving status/result polls while queued and
	// in-flight jobs run to completion, bounded by -drain-timeout.
	eng.Drain()
	if eng.Quiesce(*drainT) {
		log.Printf("dhsortd: drained, shutting down")
	} else {
		log.Printf("dhsortd: drain timeout after %v, abandoning queued work", *drainT)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "dhsortd: shutdown:", err)
	}
	eng.Close()
}
