// Command gemmserve runs the GEMM-as-a-service daemon: an HTTP server
// that coalesces concurrent same-shape requests onto shared warm plans,
// enforces per-tenant Mflop quotas and queue-depth backpressure with
// load shedding (429 + Retry-After), optionally partitions large
// problems across the simulated device pool, and exposes /metrics and
// /healthz. SIGTERM/SIGINT drains gracefully: in-flight requests
// finish, new ones get 503.
//
// Usage:
//
//	gemmserve [-addr :8080] [-device tahiti] [-db tuned.json] [-pool]
//	          [-max-queue 256]
//	          [-quota-rate 2000] [-quota-burst 8000] [-deadline 30s]
//	          [-workers N] [-metrics-out metrics.json]
//	gemmserve -selfcheck [-clients 64] [-requests 8] [-batched 16] [-metrics-out ...]
//
// -selfcheck starts the server on a loopback listener, drives it with
// the built-in multi-tenant load harness (verifying every result
// against the pure-Go BLAS reference), prints the outcome and exits
// non-zero on any wrong result — the smoke test CI runs under -race.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"oclgemm/internal/obs"
	"oclgemm/internal/serve"
	"oclgemm/internal/tunedb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "gemmserve:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gemmserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	dev := fs.String("device", "tahiti", "single-device engine's processor ID")
	dbPath := fs.String("db", "", "tuning database JSON (default: the paper's Table II)")
	pool := fs.Bool("pool", false, "partition large problems across the full device pool")
	maxQueue := fs.Int("max-queue", serve.DefaultMaxQueue, "queue depth that sheds new requests")
	quotaRate := fs.Float64("quota-rate", serve.DefaultQuotaRate, "per-tenant quota accrual, Mflop/s (negative disables)")
	quotaBurst := fs.Float64("quota-burst", serve.DefaultQuotaBurst, "per-tenant quota ceiling, Mflop")
	deadline := fs.Duration("deadline", serve.DefaultDeadline, "default per-request deadline")
	maxDim := fs.Int("max-dim", serve.DefaultMaxDim, "largest accepted matrix dimension")
	workers := fs.Int("workers", 0, "work-group parallelism per launch (0 = GOMAXPROCS)")
	metricsOut := fs.String("metrics-out", "", "write a final /metrics snapshot to this file on exit")
	drainWait := fs.Duration("drain-wait", 30*time.Second, "how long a signal-triggered drain may take")
	selfcheck := fs.Bool("selfcheck", false, "serve on loopback, run the built-in load harness, exit")
	clients := fs.Int("clients", 64, "selfcheck: concurrent clients")
	requests := fs.Int("requests", 8, "selfcheck: requests per client")
	seed := fs.Int64("seed", 1, "selfcheck: load harness seed")
	batched := fs.Int("batched", 0, "selfcheck: mix in strided batches of this many items via /v1/gemm/batched")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var db *tunedb.DB
	if *dbPath != "" {
		var err error
		if db, err = tunedb.Load(*dbPath); err != nil {
			return err
		}
	}
	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Config{
		Device: *dev, DB: db, Pool: *pool,
		MaxQueue:       *maxQueue,
		QuotaMflopRate: *quotaRate, QuotaMflopBurst: *quotaBurst,
		DefaultDeadline: *deadline, MaxDim: *maxDim, Workers: *workers,
		Metrics: reg,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	dumpMetrics := func() {
		if *metricsOut == "" {
			return
		}
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(stderr, "gemmserve: metrics dump:", err)
			return
		}
		defer f.Close()
		if err := srv.Metrics().Snapshot().WriteJSON(f); err != nil {
			fmt.Fprintln(stderr, "gemmserve: metrics dump:", err)
		}
	}
	defer dumpMetrics()

	if *selfcheck {
		return runSelfcheck(srv, *clients, *requests, *seed, *batched, stdout)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "gemmserve: serving on %s (device %s, pool %v)\n", ln.Addr(), *dev, *pool)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "gemmserve: %v, draining\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(stderr, "gemmserve:", err)
	}
	return hs.Shutdown(ctx)
}

// runSelfcheck serves on loopback and turns the load harness loose on
// it: multi-tenant concurrent clients with one deliberate quota hog,
// every result verified against the pure-Go BLAS reference. With
// batched > 0 the shape mix adds strided batches of that many items
// posted to /v1/gemm/batched, and the check also fails if none of them
// came back verified.
func runSelfcheck(srv *serve.Server, clients, requests int, seed int64, batched int, stdout io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	var shapes []serve.LoadShape
	if batched > 0 {
		shapes = []serve.LoadShape{
			{M: 8, N: 8, K: 4, Count: batched},
			{M: 8, N: 8, K: 4},
			{M: 16, N: 8, K: 8, Beta: 0.5, Count: batched},
			{M: 8, N: 24, K: 4, Single: true, Count: batched},
			{M: 13, N: 19, K: 11},
		}
	}
	res, err := serve.RunLoad(serve.LoadOptions{
		BaseURL:           "http://" + ln.Addr().String(),
		Clients:           clients,
		RequestsPerClient: requests,
		Tenants:           []string{"alpha", "bravo", "charlie", "hog"},
		HogTenant:         "hog",
		Seed:              seed,
		Shapes:            shapes,
	})
	if res != nil {
		fmt.Fprintf(stdout, "gemmserve selfcheck: %v\n", res)
		for tn, n := range res.ShedByTenant {
			fmt.Fprintf(stdout, "  shed[%s] = %d\n", tn, n)
		}
	}
	if err != nil {
		return err
	}
	if res.Wrong != 0 {
		return fmt.Errorf("selfcheck: %d wrong results", res.Wrong)
	}
	if res.OK == 0 {
		return fmt.Errorf("selfcheck: no request succeeded")
	}
	if batched > 0 && res.BatchedOK == 0 {
		return fmt.Errorf("selfcheck: no strided batch came back verified")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "gemmserve selfcheck: PASS (drained cleanly)")
	return nil
}
