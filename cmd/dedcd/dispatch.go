package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"dedc/internal/diagnose"
	"dedc/internal/store"
	"dedc/internal/stream"
	"dedc/internal/telemetry"
)

// This file runs the jobs: -workers worker loops between the durable job
// store and the diagnosis engine. Each loop claims a queued job, runs the
// attempt under recover, writes its outcome back to the store, and claims
// again. A claim lasts until that outcome write, a cancel, or the death of
// the process (boot replay requeues it then). The store is the only source
// of truth — the loops keep no job state beyond the cancel functions of
// attempts currently executing here.

// Attempt counters in the process-wide registry, for /metrics. The server's
// own counts (poolStats) feed /v1/stats and /healthz.
var (
	cSubmitted = telemetry.Default.Counter("pool.submitted", "Claimed jobs whose attempt a worker started.")
	cCompleted = telemetry.Default.Counter("pool.completed", "Attempts that returned without an error.")
	cFailed    = telemetry.Default.Counter("pool.failed", "Attempts that returned an error.")
	cPanics    = telemetry.Default.Counter("pool.panics", "Attempts that panicked; their jobs failed terminally.")
)

// work is one worker loop. It claims a ready job, runs it, and claims again
// at once; with nothing ready it waits for a kick (a submit, a requeue, or
// another worker's claim), or for the coarse ticker that also picks up jobs
// whose retry backoff has elapsed. A worker claims only while it is idle, so
// every claimed job starts at once and with it its -job-timeout deadline: a
// job never sits claimed behind a busy worker (one held, say, by a runner
// that ignores its context). The loop returns when ctx ends (drain or
// shutdown), after the attempt it is running.
func (s *server) work(ctx context.Context) {
	defer s.loops.Done()
	t := time.NewTicker(25 * time.Millisecond)
	defer t.Stop()
	for ctx.Err() == nil {
		if j, ok, err := s.st.Claim(s.claimToken()); err == nil && ok {
			// Another job may be ready for another idle worker.
			s.kick()
			s.runClaimed(j)
			continue
		}
		select {
		case <-ctx.Done():
		case <-s.wake:
		case <-t.C:
		}
	}
}

// drain stops the worker loops from claiming and waits for the attempts in
// flight to finish. It returns ctx.Err() if ctx ends first; the attempts
// keep running regardless.
func (s *server) drain(ctx context.Context) error {
	s.stopClaims()
	done := make(chan struct{})
	go func() {
		s.loops.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runClaimed runs one claimed job. The claim is already recorded; every exit
// path from here must settle it (run, release, or fail). Each claim runs
// under its own token (claimToken); the claimed job carries it as j.Worker,
// and every outcome write for the attempt uses it.
func (s *server) runClaimed(j store.Job) {
	var req jobRequest
	if err := json.Unmarshal(j.Spec, &req); err != nil {
		// A spec that does not decode will not decode next attempt either.
		if ferr := s.st.FailTerminal(j.ID, j.Worker, fmt.Sprintf("undecodable job spec: %v", err)); ferr != nil {
			s.log.Warn("failing undecodable job", "id", j.ID, "err", ferr)
		}
		return
	}
	jctx, cancel := context.WithCancel(s.baseCtx)
	att := &attempt{cancel: cancel}
	s.mu.Lock()
	s.running[j.ID] = att
	s.mu.Unlock()
	s.busy.Add(1)
	s.submitted.Add(1)
	cSubmitted.Inc()
	defer func() {
		s.busy.Add(-1)
		s.dropAttempt(j.ID, att)
		cancel()
	}()
	// A panicking attempt never returns through runAttempt, so its terminal
	// state is recorded here, under this attempt's own claim token. Panic
	// means poison pill: the input is presumed to crash the engine again, so
	// the failure skips the remaining attempts.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		stack := debug.Stack()
		if ferr := s.st.FailTerminal(j.ID, j.Worker, fmt.Sprintf("attempt %d panicked: %v", j.Attempt, r)); ferr != nil && !ignorableOutcomeErr(ferr) {
			s.log.Warn("recording panic outcome", "id", j.ID, "err", ferr)
		}
		s.log.Error("job panicked; failed terminally", "id", j.ID, "panic", r, "stack", string(stack))
		s.panics.Add(1)
		cPanics.Inc()
	}()
	if err := s.runAttempt(jctx, cancel, j, req); err != nil {
		s.failed.Add(1)
		cFailed.Inc()
		return
	}
	s.completed.Add(1)
	cCompleted.Inc()
}

// poolStats snapshots the workers' occupancy and attempt counts.
func (s *server) poolStats() stream.PoolStats {
	return stream.PoolStats{
		Workers:   s.workers,
		Idle:      max(s.workers-int(s.busy.Load()), 0),
		Submitted: s.submitted.Load(),
		Completed: s.completed.Load(),
		Failed:    s.failed.Load(),
		Panics:    s.panics.Load(),
	}
}

// dropAttempt unregisters att, and only att: if the job was requeued and
// re-claimed by this same process, the map already holds the successor
// attempt, which a stale attempt's late cleanup must not disturb.
func (s *server) dropAttempt(id string, att *attempt) {
	s.mu.Lock()
	if s.running[id] == att {
		delete(s.running, id)
	}
	s.mu.Unlock()
}

// runAttempt executes one claimed attempt end to end: per-attempt journal,
// resume from the newest earlier attempt's checkpoint, and the outcome write
// back to the store.
func (s *server) runAttempt(jctx context.Context, cancel context.CancelFunc, j store.Job, req jobRequest) error {
	// jctx carries explicit cancellation and process shutdown. At the
	// -job-timeout deadline the attempt is cancelled and its failure settled
	// at once, so a runner that ignores its context does not hold the claim
	// past the deadline; its late outcome write is then rejected by the
	// store's claim check. cancel is this attempt's own cancel func — never
	// resolved through s.running, which may already hold a successor attempt
	// for the same job.
	if s.jobTimeout > 0 {
		deadline := time.AfterFunc(s.jobTimeout, func() {
			cancel()
			s.settleFailure(j.ID, j.Worker, fmt.Sprintf("attempt %d exceeded the job deadline", j.Attempt))
		})
		defer deadline.Stop()
	}

	// A cancel can land between claim and execution; don't run a dead job.
	if cur, p := s.st.Lookup(j.ID); p != store.Found || cur.State != store.StateRunning || cur.Worker != j.Worker {
		return nil
	}

	env := runEnv{Resume: s.resumePoint(j)}
	runCtx, closeJournal := s.attemptJournal(jctx, j)
	defer closeJournal()

	res, err := s.run(runCtx, req, env)

	switch {
	case s.baseCtx.Err() != nil:
		// Shutdown interrupted the attempt: the claim goes back unburned (a
		// daemon restart is not the job's fault). If the release loses a race
		// with the store closing, boot recovery requeues the orphan instead.
		if rerr := s.st.Release(j.ID, j.Worker); rerr != nil && !errors.Is(rerr, store.ErrClosed) {
			s.log.Warn("releasing attempt at shutdown", "id", j.ID, "err", rerr)
		}
	case jctx.Err() != nil:
		// Cancelled via the store (already terminal) or settled at the
		// deadline: nothing to write either way.
	case err == nil:
		raw, merr := json.Marshal(res)
		if merr != nil {
			s.settleFailure(j.ID, j.Worker, fmt.Sprintf("encoding result: %v", merr))
			return merr
		}
		if cerr := s.st.Complete(j.ID, j.Worker, raw); cerr != nil && !ignorableOutcomeErr(cerr) {
			s.log.Warn("recording completion", "id", j.ID, "err", cerr)
		}
	default:
		s.settleFailure(j.ID, j.Worker, err.Error())
	}
	return err
}

// resumePoint finds the checkpoint a claimed attempt resumes from: the last
// one in the journal of the newest earlier attempt that holds one. Attempts
// are numbered, so the journals are <id>.a<N-1>.jsonl down to <id>.a1.jsonl.
// A journal that is missing, holds no checkpoint or does not decode is
// skipped; with none usable the attempt starts fresh.
func (s *server) resumePoint(j store.Job) *diagnose.Checkpoint {
	if s.journalDir == "" {
		return nil
	}
	for a := j.Attempt - 1; a >= 1; a-- {
		f, err := os.Open(s.journalPath(j.ID, a))
		if err != nil {
			continue
		}
		cp, err := diagnose.LatestCheckpoint(f)
		f.Close()
		if err != nil {
			s.log.Warn("skipping an attempt journal that does not decode", "id", j.ID, "attempt", a, "err", err)
			continue
		}
		if cp != nil {
			return cp
		}
	}
	return nil
}

// settleFailure records a failed attempt under the attempt's claim token;
// the store decides between a backoff-requeue and a terminal failure. Races
// with a cancel (terminal) or an earlier settlement are benign.
func (s *server) settleFailure(id, worker, msg string) {
	if err := s.st.Fail(id, worker, msg); err != nil && !ignorableOutcomeErr(err) {
		s.log.Warn("recording failure", "id", id, "err", err)
	}
	s.kick()
}

// ignorableOutcomeErr reports outcome-write errors that just mean another
// actor settled the job first: a cancel made it terminal, the deadline
// settled the attempt, or shutdown closed the store.
func ignorableOutcomeErr(err error) bool {
	return errors.Is(err, store.ErrTerminal) || errors.Is(err, store.ErrWrongWorker) ||
		errors.Is(err, store.ErrNotRunning) || errors.Is(err, store.ErrClosed)
}

// journalPath names the run journal of one attempt of a job.
func (s *server) journalPath(id string, attempt int) string {
	return filepath.Join(s.journalDir, fmt.Sprintf("%s.a%d.jsonl", id, attempt))
}

// attemptJournal attaches a per-attempt run journal (<dir>/<id>.a<N>.jsonl)
// to ctx. Journal trouble never fails the job — the run proceeds
// unjournaled — and the returned cleanup is safe to call unconditionally.
func (s *server) attemptJournal(ctx context.Context, j store.Job) (context.Context, func()) {
	if s.journalDir == "" {
		return ctx, func() {}
	}
	f, err := os.Create(s.journalPath(j.ID, j.Attempt))
	if err != nil {
		s.log.Warn("attempt journal unavailable; running unjournaled", "id", j.ID, "err", err)
		return ctx, func() {}
	}
	jl := telemetry.NewJournal(f)
	tr := telemetry.NewTracer(telemetry.Options{Journal: jl})
	return telemetry.WithTracer(ctx, tr), func() {
		if cerr := jl.Close(); cerr != nil {
			s.log.Warn("closing attempt journal", "id", j.ID, "err", cerr)
		}
		f.Close()
	}
}

// watchEvictions removes the attempt journals of the jobs the store evicts
// while the daemon runs: it sweeps the journal dir whenever the store's
// eviction count moves past seen. Runs until ctx ends or the store closes.
func (s *server) watchEvictions(ctx context.Context, seen int) {
	for {
		changed, open := s.st.Changed()
		if n := s.st.Evictions(); n != seen {
			seen = n
			s.sweepJournals()
		}
		if !open {
			return
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return
		}
	}
}

// sweepJournals removes every attempt journal whose job the store has
// evicted, at startup (evictions made while no daemon ran left theirs
// behind) and after each live eviction. Journals of jobs the store still
// holds, and files that are not <id>.a<N>.jsonl, are left alone.
func (s *server) sweepJournals() {
	if s.journalDir == "" {
		return
	}
	entries, err := os.ReadDir(s.journalDir)
	if err != nil {
		s.log.Warn("listing journal dir for the eviction sweep", "dir", s.journalDir, "err", err)
		return
	}
	removed := 0
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".jsonl")
		i := strings.LastIndex(name, ".a")
		if !ok || i < 0 {
			continue
		}
		if _, p := s.st.Lookup(name[:i]); p != store.Evicted {
			continue
		}
		if err := os.Remove(filepath.Join(s.journalDir, e.Name())); err != nil {
			s.log.Warn("removing evicted job's journal", "path", e.Name(), "err", err)
			continue
		}
		removed++
	}
	if removed > 0 {
		s.log.Info("removed journals of evicted jobs", "dir", s.journalDir, "files", removed)
	}
}
