// Command adaptrouter is the fleet front door: one HTTP process fronting
// N shared-nothing adaptserve replicas with health-aware consistent-hash
// routing, budgeted retries, and an exact (bitwise) result cache over the
// replicas' deterministic endpoints.
//
// Usage:
//
//	adaptserve -addr 127.0.0.1:8081 -models models.gob &
//	adaptserve -addr 127.0.0.1:8082 -models models.gob &
//	adaptserve -addr 127.0.0.1:8083 -models models.gob &
//	adaptrouter -addr :8080 \
//	    -replicas http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//
//	curl -X POST --data-binary @events.evio \
//	     -H 'Content-Type: application/x-adapt-evio' \
//	     http://localhost:8080/v1/localize?canonical=1
//	curl http://localhost:8080/fleet     # per-replica health/load/models
//	curl http://localhost:8080/metrics  # cache hit ratio, retries, ejections
//
// The replica list may come from the ADAPT_REPLICAS environment variable
// instead of -replicas (same comma-separated form), so a fleet can be
// wired by the deployment environment without argument plumbing.
//
// SIGTERM/SIGINT drains gracefully: readiness flips to 503, the health
// prober stops, in-flight proxied requests finish (bounded by
// -drain-timeout), then the process exits 0.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/router"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	replicas := flag.String("replicas", "", "comma-separated adaptserve base URLs (empty = $ADAPT_REPLICAS)")
	vnodes := flag.Int("vnodes", 0, "consistent-hash virtual nodes per replica (0 = default 128)")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "/readyz health-probe period")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "health-probe round timeout")
	failThreshold := flag.Int("fail-threshold", 2, "consecutive failures that eject a replica")
	retryBudget := flag.Int("retry-budget", 2, "max retried attempts per request after the first (-1 = no retries)")
	retryAfterCap := flag.Duration("retry-after-cap", 2*time.Second, "max honored 429 Retry-After wait")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "per-upstream-attempt timeout (0 = request deadline only)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "exact result cache budget in bytes (-1 disables caching)")
	cacheEntries := flag.Int("cache-entries", 4096, "exact result cache entry bound")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "max time to drain in-flight requests on SIGTERM")
	cli.Parse("adaptrouter")

	list := *replicas
	if list == "" {
		list = os.Getenv("ADAPT_REPLICAS")
	}
	var urls []string
	for _, r := range strings.Split(list, ",") {
		if r = strings.TrimSpace(r); r != "" {
			urls = append(urls, r)
		}
	}
	if len(urls) == 0 {
		log.Fatalf("no replicas: pass -replicas or set ADAPT_REPLICAS")
	}

	rt, err := router.New(router.Config{
		Replicas:        urls,
		Vnodes:          *vnodes,
		ProbeInterval:   *probeInterval,
		ProbeTimeout:    *probeTimeout,
		FailThreshold:   *failThreshold,
		RetryBudget:     *retryBudget,
		RetryAfterCap:   *retryAfterCap,
		AttemptTimeout:  *attemptTimeout,
		CacheMaxBytes:   *cacheBytes,
		CacheMaxEntries: *cacheEntries,
	})
	if err != nil {
		log.Fatalf("%v", err)
	}
	// Establish fleet health before accepting traffic so the first
	// requests route on real information, not cold-start optimism.
	rt.ProbeNow(context.Background())

	// Catch the signals before announcing the address, so a SIGTERM sent
	// once "listening on" is logged always drains.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("listening on %s, fronting %d replicas: %s", l.Addr(), len(urls), strings.Join(urls, ", "))

	if err := cli.Serve(ctx, rt, l, *drainTimeout); err != nil {
		log.Fatal(err)
	}
}
