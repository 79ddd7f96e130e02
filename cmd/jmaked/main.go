// Command jmaked serves jmake checks over HTTP from a warm session: the
// generated workspace, arch index, Kconfig valuations, lexed tokens and
// the compile-result cache stay resident across requests, so a check
// costs its own work only — not the per-invocation warm-up the batch CLI
// pays.
//
// Usage:
//
//	jmaked [-addr :8344] [workspace/cache flags as in jmake]
//
// Endpoints:
//
//	GET  /healthz   liveness (process up, session present)
//	GET  /readyz    readiness (503 while draining)
//	GET  /metricsz  daemon + session metrics; JSON by default, Prometheus
//	                text exposition with ?format=prometheus or an Accept
//	                header asking for text/plain
//	GET  /commits   the workspace's window commit IDs
//	GET  /audit     whole-tree configuration-mismatch report (computed once,
//	                under an admission slot, then cached)
//	POST /check     {"commit": ID, "options": {...}, "deadline_ms": N};
//	                ?trace=tree|chrome|summary (or X-JMake-Trace) returns
//	                the span tree beside the report, byte-identical to the
//	                one-shot CLI trace artifacts
//	POST /batch     {"commits": [ID...], ...}; same ?trace= sidecar per
//	                entry
//	POST /follow    {"commits": [ID...], ...} — incremental stream: one
//	                warm follower session resident across streams, one
//	                NDJSON entry per commit flushed as checked, with
//	                per-commit virtual vs effective cost
//	GET  /tracez/<request-id>          recent request's trace (?format=)
//	GET  /debugz/requests              flight recorder: last N records
//
// Every request gets a deterministic ID (X-JMake-Request-Id header,
// request_id field in error envelopes and flight records); -log-level
// selects the structured NDJSON event stream on stderr; -debug-addr
// serves net/http/pprof on a separate listener.
//
// The /check happy path answers the same bytes `jmake -commit ID -json`
// prints for the same workspace flags. /check, /batch, /follow and
// /audit share one admission gate: overload sheds with 429 +
// Retry-After, a body over 4 MiB answers 413, and deadline expiry
// answers 504 (with a partial report when it hits mid-check); SIGINT or
// SIGTERM drains gracefully and flushes the persistent cache tier.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"jmake/internal/daemon"
	"jmake/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jmaked:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg daemon.Config
	cfg.Workspace.Register(flag.CommandLine, 0.4, 0.05)
	cfg.Cache.Register(flag.CommandLine)
	var (
		addr         = flag.String("addr", "127.0.0.1:8344", "listen address")
		maxInFlight  = flag.Int("max-inflight", 2, "max concurrently running checks")
		maxQueue     = flag.Int("max-queue", 8, "max requests waiting for a slot before shedding with 429 (-1 = none)")
		deadline     = flag.Duration("deadline", 60*time.Second, "default per-request deadline")
		maxDeadline  = flag.Duration("max-deadline", 5*time.Minute, "cap on client-requested deadlines")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
		debug        = flag.Bool("debug", false, "enable debug_panic/debug_hold_ms request fields (tests only)")
		logLevel     = flag.String("log-level", "info", "structured log threshold: debug|info|warn|error")
		logSample    = flag.Int("log-debug-sample", 1, "keep 1 of every N debug events (info+ never sampled)")
		flightSize   = flag.Int("flight", obs.DefaultFlightRecorderSize, "flight-recorder capacity: last N request records kept for /debugz/requests and /tracez")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	)
	flag.Parse()
	cfg.MaxInFlight = *maxInFlight
	cfg.MaxQueue = *maxQueue
	cfg.DefaultDeadline = *deadline
	cfg.MaxDeadline = *maxDeadline
	cfg.Debug = *debug
	cfg.FlightSize = *flightSize
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	cfg.Logger = obs.New(os.Stderr, level)
	cfg.Logger.SetDebugSampling(*logSample)

	if *debugAddr != "" {
		// pprof lives on its own listener so profiling is never exposed on
		// the service address by accident.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				log.Printf("jmaked: debug listener: %v", err)
			}
		}()
		log.Printf("jmaked: pprof on %s/debug/pprof/", *debugAddr)
	}

	log.Printf("jmaked: generating workspace (tree-scale %.2f, commit-scale %.2f)...",
		cfg.Workspace.TreeScale, cfg.Workspace.CommitScale)
	start := time.Now()
	s, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	log.Printf("jmaked: warm in %v, %d window commits, serving on %s",
		time.Since(start).Round(time.Millisecond), len(s.Commits()), *addr)

	srv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("jmaked: %v: draining (grace %v)...", sig, *drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(ctx, srv); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Printf("jmaked: drained cleanly")
	return nil
}
