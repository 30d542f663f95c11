package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dedc/internal/diagnose"
	"dedc/internal/store"
	"dedc/internal/telemetry"
)

// This file is the dispatcher: the bridge between the durable job store and
// the supervised execution pool. It claims queued jobs, records each
// attempt's checkpoint refs, and writes every attempt outcome back to the
// store. A claim lasts until that outcome write, a cancel, or the death of
// the process (boot replay requeues it then). The store is the only source of
// truth — the dispatcher keeps no job state beyond the cancel functions of
// attempts currently executing here.

// dispatch claims jobs whenever a pool worker is idle, waking on submits, on
// every attempt's end and on a coarse ticker (which also picks up jobs whose
// retry backoff has elapsed).
func (s *server) dispatch(ctx context.Context) {
	t := time.NewTicker(25 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.wake:
		case <-t.C:
		}
		s.fill(ctx)
	}
}

// fill claims one ready job per idle pool worker, so every claimed job
// starts at once and with it its -job-timeout deadline; a job never sits
// claimed behind a busy worker (one held, say, by a runner that ignores its
// context). Each claim runs under its own token (claimToken); the claimed
// job carries it as j.Worker, and every outcome write for the attempt uses
// it.
func (s *server) fill(ctx context.Context) {
	for ctx.Err() == nil && s.pool.Idle() > 0 {
		j, ok, err := s.st.Claim(s.claimToken())
		if err != nil || !ok {
			return
		}
		s.startJob(j)
	}
}

// startJob hands one claimed job to the pool. The claim is already recorded;
// every exit path from here must settle it (run, release, or fail).
func (s *server) startJob(j store.Job) {
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
	err := s.pool.Submit(j.ID, func(pctx context.Context) error {
		defer func() {
			s.dropAttempt(j.ID, att)
			cancel()
		}()
		// A panicking attempt never returns through runAttempt, so its
		// terminal state is recorded here — under this attempt's own claim
		// token — before the pool reports the panic and replaces the
		// worker. Panic means poison pill: the input is presumed to crash
		// the engine again, so the failure skips the remaining attempts.
		defer func() {
			if r := recover(); r != nil {
				if ferr := s.st.FailTerminal(j.ID, j.Worker, fmt.Sprintf("attempt %d panicked: %v", j.Attempt, r)); ferr != nil && !ignorableOutcomeErr(ferr) {
					s.log.Warn("recording panic outcome", "id", j.ID, "err", ferr)
				}
				panic(r)
			}
		}()
		return s.runAttempt(jctx, pctx, cancel, j, req)
	})
	if err != nil {
		// The pool shed or refused the claim before it ran: return it to the
		// queue without burning an attempt.
		s.dropAttempt(j.ID, att)
		cancel()
		if rerr := s.st.Release(j.ID, j.Worker); rerr != nil {
			s.log.Warn("releasing unexecuted claim", "id", j.ID, "err", rerr)
		}
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

// runAttempt executes one claimed attempt end to end: per-attempt journal
// with the checkpoint ref recorded at every checkpoint, resume from the
// previous attempt's checkpoint when one is recorded, and the terminal write
// back to the store.
func (s *server) runAttempt(jctx, pctx context.Context, cancel context.CancelFunc, j store.Job, req jobRequest) error {
	// The pool context carries the per-attempt deadline; the job context
	// carries explicit cancellation and process shutdown. At the deadline the
	// attempt is cancelled and its failure settled at once, so a runner that
	// ignores its context does not hold the claim past -job-timeout; its late
	// outcome write is then rejected by the store's claim check. cancel is
	// this attempt's own cancel func — never resolved through s.running,
	// which may already hold a successor attempt for the same job.
	stop := context.AfterFunc(pctx, func() {
		cancel()
		s.settleFailure(j.ID, j.Worker, fmt.Sprintf("attempt %d exceeded the job deadline", j.Attempt))
	})
	defer stop()

	// A cancel can land between claim and execution; don't run a dead job.
	if cur, p := s.st.Lookup(j.ID); p != store.Found || cur.State != store.StateRunning || cur.Worker != j.Worker {
		return nil
	}

	env := runEnv{}
	runCtx, closeJournal := s.attemptJournal(jctx, j, cancel, &env)
	defer closeJournal()
	// Live progress rides every attempt, journaled or not: the hook wraps
	// whatever checkpoint callback the journal installed (the checkpoint
	// ref) with publication to the events bus.
	env.OnCheckpoint = s.progressHook(j, env.OnCheckpoint)
	if j.Ref != "" {
		if f, err := os.Open(j.Ref); err == nil {
			defer f.Close()
			env.Resume = f
		} else {
			s.log.Warn("checkpoint journal unavailable; restarting attempt fresh", "id", j.ID, "ref", j.Ref, "err", err)
		}
	}

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

// attemptJournal attaches a per-attempt run journal (<dir>/<id>.a<N>.jsonl)
// to ctx and wires the checkpoint hook: every checkpoint records the journal
// path as the job's resume ref.
// Journal trouble never fails the job — the run proceeds unjournaled — and
// the returned cleanup is safe to call unconditionally.
func (s *server) attemptJournal(ctx context.Context, j store.Job, cancel context.CancelFunc, env *runEnv) (context.Context, func()) {
	if s.journalDir == "" {
		return ctx, func() {}
	}
	path := filepath.Join(s.journalDir, fmt.Sprintf("%s.a%d.jsonl", j.ID, j.Attempt))
	f, err := os.Create(path)
	if err != nil {
		s.log.Warn("attempt journal unavailable; running unjournaled", "id", j.ID, "err", err)
		return ctx, func() {}
	}
	jl := telemetry.NewJournal(f)
	// Solution events tee to the live event stream as the journal records
	// them (the mirror sees the exact persisted line).
	jl.SetMirror(s.mirrorSolutions(j.ID))
	tr := telemetry.NewTracer(telemetry.Options{Journal: jl})
	// The engine calls this after the checkpoint is journaled (and the
	// journal flushes checkpoints through), so by the time the ref lands in
	// the store the state it points at is already on disk.
	env.OnCheckpoint = func(*diagnose.Checkpoint) {
		if err := s.st.SetCheckpoint(j.ID, j.Worker, path); err != nil {
			// The claim is gone (cancelled, or settled at the deadline) or
			// the store refused the write: the attempt stops either way.
			if !ignorableOutcomeErr(err) {
				s.log.Warn("recording checkpoint ref", "id", j.ID, "err", err)
			}
			cancel()
		}
	}
	return telemetry.WithTracer(ctx, tr), func() {
		if cerr := jl.Close(); cerr != nil {
			s.log.Warn("closing attempt journal", "id", j.ID, "err", cerr)
		}
		f.Close()
	}
}

// removeJournals deletes the attempt journals of a job the store evicted:
// attempts are numbered 1..attempts, so no directory listing is needed.
// Removal is best-effort; a failure is logged and the file stays until the
// next startup sweep.
func (s *server) removeJournals(id string, attempts int) {
	if s.journalDir == "" {
		return
	}
	for a := 1; a <= attempts; a++ {
		path := filepath.Join(s.journalDir, fmt.Sprintf("%s.a%d.jsonl", id, a))
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			s.log.Warn("removing evicted job's journal", "id", id, "path", path, "err", err)
		}
	}
}

// sweepJournals removes, at startup, every attempt journal whose job the
// store has evicted: evictions made while no daemon watched (or whose watch
// update was dropped) leave their journals behind. Journals of jobs the store
// still holds, and files that are not <id>.a<N>.jsonl, are left alone.
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
