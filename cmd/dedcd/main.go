// Command dedcd runs the diagnosis engine as a crash-only HTTP service over
// a durable, event-sourced job store (internal/store). The daemon itself is
// stateless: every job state change — submission, claim, outcome — is an
// fsync'd event in the store, so a SIGKILL at any instant loses no accepted
// work. On boot the log is replayed, jobs the dead process held are requeued
// as orphans, and interrupted jobs resume from the last checkpoint in their
// attempt journals.
//
// Jobs run on -workers worker loops; each one claims a queued job only while
// it is idle, runs the attempt, and claims again. One daemon owns a store
// directory (an exclusive flock), so a claim needs no lease TTL: it lasts
// until the attempt's outcome write, a cancel, or the death of the process.
// A failed attempt, or one that outlives -job-timeout, is requeued with
// capped retries and jittered exponential backoff; a panicking job is
// terminally failed (poison-pill semantics) and its stack logged, and its
// worker goes on to the next job.
//
// Endpoints (all JSON):
//
//	POST /v1/jobs             submit {"impl": "<bench>", "spec"|"device": "<bench>", ...}
//	GET  /v1/jobs             list retained jobs + worker counters (?state=queued&limit=100)
//	GET  /v1/jobs/{id}        job status + lifecycle timeline (404 never submitted, 410 evicted)
//	GET  /v1/jobs/{id}/result terminal result (409 while queued/running)
//	GET  /v1/jobs/{id}/events SSE stream of lifecycle transitions (resumable via Last-Event-ID)
//	POST /v1/jobs/{id}/cancel cancel a queued or running job
//	GET  /v1/stats            daemon summary: job counts, worker occupancy, latency quantiles, cache
//	GET  /healthz             liveness + worker counters + job counts
//	GET  /readyz              readiness: 503 while starting or draining
//
// The standard telemetry debug endpoints (/metrics, /debug/pprof/*) share
// the same listener.
//
// Exit status: 0 on clean (signal-initiated) shutdown with all jobs drained,
// 1 on startup errors or a drain that exceeded -drain-timeout. Jobs still
// running at a blown drain deadline are released back to the queue; without
// even that chance (SIGKILL), boot recovery requeues them as orphans.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dedc/internal/cache"
	"dedc/internal/store"
	"dedc/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("dedcd", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8080", "listen address")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file once serving (for harnesses using -addr :0)")
	workers := fs.Int("workers", 2, "concurrent diagnosis workers")
	simWorkers := fs.Int("sim-workers", telemetry.DefaultWorkers(),
		"goroutines each job's verification gate re-simulation shards pattern words across (1 = sequential; results are identical for any value)")
	cacheBytes := fs.Int64("cache-bytes", 64<<20,
		"byte budget for the content-addressed parse/ATPG cache shared by all workers (0 disables; results are identical either way)")
	maxQueued := fs.Int("max-queued", 1024, "admission cap on queued jobs; submissions beyond it are shed with 503 (0 = unlimited)")
	jobTimeout := fs.Duration("job-timeout", 10*time.Minute, "per-attempt deadline (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs")
	drainGrace := fs.Duration("drain-grace", 250*time.Millisecond, "delay between flipping /readyz to 503 and closing the listener, so balancers stop routing first")
	storeDir := fs.String("store-dir", "", "durable job store directory (empty = in-memory store; jobs do not survive restarts)")
	maxAttempts := fs.Int("max-attempts", 3, "claims per job before it fails terminally")
	backoff := fs.Duration("retry-backoff", 250*time.Millisecond, "base requeue backoff after a failed attempt (doubles per attempt, jittered)")
	journalDir := fs.String("journal-dir", "", "per-attempt run journals (<dir>/<id>.a<N>.jsonl); default <store-dir>/journals when -store-dir is set. Requeued jobs resume from these.")
	var obs telemetry.CLI
	obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	rt, err := obs.Build(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dedcd: %v\n", err)
		return 1
	}
	defer rt.Close()
	log := rt.Logger

	sopt := store.Options{
		MaxAttempts: *maxAttempts,
		BackoffBase: *backoff,
	}

	// Bind before opening the store: a busy or bad address must fail before
	// boot replay requeues orphans or a worker claims anything.
	// Requests arriving before the handler is attached wait in the accept
	// backlog.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
		return 1
	}

	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir, sopt)
		if err != nil {
			ln.Close()
			log.Error("opening job store", "dir", *storeDir, "err", err)
			return 1
		}
		if *journalDir == "" {
			*journalDir = filepath.Join(*storeDir, "journals")
		}
		log.Info("job store recovered", "dir", *storeDir, "jobs", st.Counts())
	} else {
		st = store.NewMemory(sopt)
		log.Warn("running with in-memory job store; jobs will not survive a restart (set -store-dir)")
	}
	defer st.Close()

	// First SIGTERM/SIGINT starts the graceful drain; a second one restores
	// the default disposition via stop(), so it force-kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	// Jobs live on their own context, independent of the signal: a drain lets
	// in-flight work finish, and only a blown -drain-timeout cancels it (the
	// workers then release the claims back to the queue).
	jobsCtx, cancelJobs := context.WithCancel(context.Background())
	defer cancelJobs()
	srv := newServer(log, st, *workers)
	srv.jobTimeout = *jobTimeout
	srv.simWorkers = *simWorkers
	srv.cache = cache.NewPipeline(*cacheBytes)
	srv.cache.Instrument(telemetry.Default)
	srv.maxQueued = *maxQueued
	srv.retryBackoff = *backoff
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			log.Error("creating -journal-dir", "err", err)
			return 1
		}
		srv.journalDir = *journalDir
	}
	srv.start(jobsCtx)
	web := telemetry.ServeMuxListener(ln, srv.handler(telemetry.Default))
	log.Info("dedcd listening", "addr", web.Addr(), "workers", *workers, "store", *storeDir)
	if *addrFile != "" {
		// Written after the listener is live, so a reader that sees the file
		// can connect immediately.
		if err := os.WriteFile(*addrFile, []byte(web.Addr()), 0o644); err != nil {
			log.Error("writing -addr-file", "path", *addrFile, "err", err)
			return 1
		}
	}

	<-ctx.Done()
	// Readiness goes first: /readyz flips to 503 and the grace window lets
	// balancers drain before the listener stops accepting. In-flight SSE
	// streams and requests keep completing through Shutdown below.
	srv.beginDrain()
	log.Info("shutdown requested; draining", "timeout", *drainTimeout, "grace", *drainGrace)
	if *drainGrace > 0 {
		time.Sleep(*drainGrace)
	}
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// When the drain deadline hits, cancel the jobs themselves so the engine
	// unwinds; the grace period below covers that unwinding.
	stopAfter := context.AfterFunc(dctx, cancelJobs)
	defer stopAfter()
	code := 0
	if err := web.Shutdown(dctx); err != nil {
		log.Error("http shutdown", "err", err)
		code = 1
	}
	gctx, gcancel := context.WithTimeout(context.Background(), *drainTimeout+10*time.Second)
	defer gcancel()
	if err := srv.drain(gctx); err != nil {
		log.Error("job drain incomplete", "err", err, "stats", srv.poolStats())
		code = 1
	}
	pst := srv.poolStats()
	log.Info("drained", "completed", pst.Completed, "failed", pst.Failed,
		"panics", pst.Panics, "jobs", srv.st.Counts())
	return code
}
