package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dedc/internal/bench"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/store"
	"dedc/internal/telemetry"
)

// TestStartupSweepRemovesEvictedJournals: journals of jobs evicted while no
// daemon was watching (here: compacted by a bare store, as after a crash or
// a build without journal cleanup) are deleted when the next daemon starts.
// Journals of retained jobs, of ids the store never issued, and files that
// are not attempt journals stay.
func TestStartupSweepRemovesEvictedJournals(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journals")
	if err := os.Mkdir(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	sopt := store.Options{RetainTerminal: 1, CompactEvery: 1 << 20}
	st, err := store.Open(dir, sopt)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := st.Submit(json.RawMessage(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		c, ok, err := st.Claim("w")
		if err != nil || !ok || c.ID != j.ID {
			t.Fatalf("Claim = %+v %v %v", c, ok, err)
		}
		if err := st.Complete(j.ID, c.Worker, json.RawMessage(`{}`)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	files := map[string]bool{ // name → kept by the sweep
		ids[0] + ".a1.jsonl": false,
		ids[0] + ".a2.jsonl": false,
		ids[1] + ".a1.jsonl": false,
		ids[2] + ".a1.jsonl": true,
		"job-999.a1.jsonl":   true,
		"notes.txt":          true,
	}
	for name := range files {
		if err := os.WriteFile(filepath.Join(jdir, name), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = store.Open(dir, sopt)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(slog.New(slog.NewTextHandler(io.Discard, nil)), st, 1)
	s.journalDir = jdir
	ctx, cancel := context.WithCancel(context.Background())
	s.start(ctx)
	t.Cleanup(func() {
		cancel()
		dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer dcancel()
		s.drain(dctx)
		st.Close()
	})
	for name, keep := range files {
		_, err := os.Stat(filepath.Join(jdir, name))
		switch {
		case keep && err != nil:
			t.Errorf("%s was removed: %v", name, err)
		case !keep && !errors.Is(err, os.ErrNotExist):
			t.Errorf("%s of an evicted job survived the startup sweep (stat err %v)", name, err)
		}
	}
}

// TestDispatchNoGoroutineLeak: a burst of real diagnosis submissions, some
// shed by the admission cap and the rest run to terminal through the
// worker loops with journals, leaves the goroutine count where it was
// before the burst.
func TestDispatchNoGoroutineLeak(t *testing.T) {
	c := gen.Alu(2)
	var good, bad bytes.Buffer
	if err := bench.Write(&good, c); err != nil {
		t.Fatal(err)
	}
	sites := fault.Sites(c)
	if err := bench.Write(&bad, fault.Inject(c, fault.Fault{Site: sites[len(sites)/2], Value: true})); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(jobRequest{Impl: good.String(), Device: bad.String(), Random: 256, MaxErrors: 2})
	if err != nil {
		t.Fatal(err)
	}

	st := store.NewMemory(store.Options{MaxAttempts: 1})
	s := newServer(slog.New(slog.NewTextHandler(io.Discard, nil)), st, 2)
	s.maxQueued = 2
	s.journalDir = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	s.start(ctx)
	ts := httptest.NewServer(s.handler(telemetry.NewRegistry()))
	t.Cleanup(func() {
		ts.Close()
		cancel()
		dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer dcancel()
		s.drain(dctx)
		st.Close()
	})
	// A client of its own, so its idle keep-alive connections (and the
	// server goroutines behind them) can be closed before the count.
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}

	before := runtime.NumGoroutine()
	var accepted []string
	shed := 0
	for i := 0; i < 100; i++ {
		resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		derr := json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		switch {
		case derr != nil:
			t.Fatalf("decoding submit response: %v", derr)
		case resp.StatusCode == http.StatusAccepted:
			accepted = append(accepted, m["id"].(string))
		case resp.StatusCode == http.StatusServiceUnavailable:
			shed++
		default:
			t.Fatalf("submit status %d: %v", resp.StatusCode, m)
		}
	}
	t.Logf("burst of 100: %d accepted, %d shed", len(accepted), shed)
	if shed == 0 || len(accepted) == 0 {
		t.Fatalf("burst of 100: %d accepted, %d shed; want some of each", len(accepted), shed)
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, id := range accepted {
		for {
			j, p := st.Lookup(id)
			if p != store.Found {
				t.Fatalf("job %s: presence %v", id, p)
			}
			if j.State.Terminal() {
				if j.State != store.StateDone {
					t.Fatalf("job %s ended %s: %s", id, j.State, j.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s still %s", id, j.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	tr.CloseIdleConnections()

	deadline = time.Now().Add(5 * time.Second)
	for {
		if now := runtime.NumGoroutine(); now <= before+4 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after %d jobs (%d shed)\n%s",
				before, runtime.NumGoroutine(), len(accepted), shed, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStuckAttemptSettledAtDeadline: a runner that ignores its context past
// JobTimeout does not hold its claim. At the deadline the attempt fails with
// no further wait — requeued with backoff while attempts remain, failed
// terminally at MaxAttempts — and the stuck attempts' late outcomes are
// rejected by the store's claim check.
func TestStuckAttemptSettledAtDeadline(t *testing.T) {
	const timeout = 100 * time.Millisecond
	st := store.NewMemory(store.Options{MaxAttempts: 2, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond})
	s := newServer(slog.New(slog.NewTextHandler(io.Discard, nil)), st, 2)
	s.jobTimeout = timeout
	release := make(chan struct{})
	s.run = func(context.Context, jobRequest, runEnv) (*jobResult, error) {
		<-release // deaf to its context
		return &jobResult{Status: "Complete", Solved: true}, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.start(ctx)
	released := false
	t.Cleanup(func() {
		if !released {
			close(release)
		}
		cancel()
		dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer dcancel()
		s.drain(dctx)
		st.Close()
	})
	j, err := st.Submit(json.RawMessage(`{"impl":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	s.kick()

	var got store.Job
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		got, _ = st.Lookup(j.ID)
		if got.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s at attempt %d, 10s after submission", got.State, got.Attempt)
		}
	}
	if got.State != store.StateFailed || !strings.Contains(got.Error, "exceeded the job deadline; 2/2 attempts exhausted") {
		t.Fatalf("job = %s (%q), want failed on the deadline after 2 attempts", got.State, got.Error)
	}
	var kinds []string
	var tokens []string
	var claimed time.Time
	for _, e := range got.Timeline {
		kinds = append(kinds, e.Type)
		switch e.Type {
		case store.TLClaimed:
			claimed = e.TS
			tokens = append(tokens, e.Worker)
		case store.TLRequeued, store.TLFailed:
			// Settled at the deadline, not after a lease-style wait.
			if d := e.TS.Sub(claimed); d < timeout || d > timeout+2*time.Second {
				t.Errorf("attempt settled %v after its claim, want just past the %v deadline", d, timeout)
			}
		}
	}
	if want := "submitted claimed requeued claimed failed"; strings.Join(kinds, " ") != want {
		t.Errorf("timeline = %v, want %s", kinds, want)
	}
	for _, tok := range tokens {
		if err := st.Complete(j.ID, tok, json.RawMessage(`{}`)); !errors.Is(err, store.ErrTerminal) {
			t.Errorf("late Complete under %s = %v, want ErrTerminal", tok, err)
		}
	}

	// Unblock both stuck runners: their successful returns must not turn the
	// failed job into a completed one.
	close(release)
	released = true
	for deadline := time.Now().Add(10 * time.Second); s.poolStats().Completed < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("stuck runners never returned: %+v", s.poolStats())
		}
	}
	if after, _ := st.Lookup(j.ID); after.State != store.StateFailed || len(after.Result) != 0 {
		t.Errorf("job after the late returns = %s (result %q), want failed with no result", after.State, after.Result)
	}
}

// TestClaimWaitsForIdleWorker: with the only worker held by a runner that
// ignores its context, a job requeued at the deadline stays queued in the
// store rather than claimed behind the busy worker, so no attempt sits
// running past its deadline; each later attempt is claimed when the worker
// frees and settled at its own deadline.
func TestClaimWaitsForIdleWorker(t *testing.T) {
	const (
		timeout = 100 * time.Millisecond
		deaf    = 800 * time.Millisecond // each runner ignores its context this long
		slack   = 400 * time.Millisecond
	)
	st := store.NewMemory(store.Options{MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond})
	s := newServer(slog.New(slog.NewTextHandler(io.Discard, nil)), st, 1)
	s.jobTimeout = timeout
	s.run = func(context.Context, jobRequest, runEnv) (*jobResult, error) {
		time.Sleep(deaf)
		return &jobResult{Status: "Complete", Solved: true}, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.start(ctx)
	t.Cleanup(func() {
		cancel()
		dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer dcancel()
		s.drain(dctx)
		st.Close()
	})
	j, err := st.Submit(json.RawMessage(`{"impl":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	s.kick()

	var got store.Job
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		got, _ = st.Lookup(j.ID)
		if got.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s at attempt %d, 10s after submission", got.State, got.Attempt)
		}
	}
	if got.State != store.StateFailed || !strings.Contains(got.Error, "exceeded the job deadline; 3/3 attempts exhausted") {
		t.Fatalf("job = %s (%q), want failed on the deadline after 3 attempts", got.State, got.Error)
	}
	var kinds []string
	var claimed, settled time.Time
	for _, e := range got.Timeline {
		kinds = append(kinds, e.Type)
		switch e.Type {
		case store.TLClaimed:
			// The worker was busy until the previous runner returned.
			if !settled.IsZero() && e.TS.Sub(settled) < deaf-timeout-slack {
				t.Errorf("attempt claimed %v after the previous one settled, while its runner still held the only worker", e.TS.Sub(settled))
			}
			claimed = e.TS
		case store.TLRequeued, store.TLFailed:
			if d := e.TS.Sub(claimed); d > timeout+slack {
				t.Errorf("attempt ran %v from claim to settlement, want at most the %v deadline plus %v", d, timeout, slack)
			}
			settled = e.TS
		}
	}
	if want := "submitted claimed requeued claimed requeued claimed failed"; strings.Join(kinds, " ") != want {
		t.Errorf("timeline = %v, want %s", kinds, want)
	}
}

// TestDrainStopsClaimingAndWaits: drain stops the workers from claiming at
// once, returns the context's error while an attempt is still running, and
// returns nil once the attempt has finished; a job queued after the drain
// began stays queued. The worker counts track the attempt throughout.
func TestDrainStopsClaimingAndWaits(t *testing.T) {
	st := store.NewMemory(store.Options{})
	defer st.Close()
	s := newServer(slog.New(slog.NewTextHandler(io.Discard, nil)), st, 1)
	release := make(chan struct{})
	s.run = func(context.Context, jobRequest, runEnv) (*jobResult, error) {
		<-release
		return &jobResult{Status: "Complete", Solved: true}, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.start(ctx)
	a, err := st.Submit(json.RawMessage(`{"impl":"a"}`))
	if err != nil {
		t.Fatal(err)
	}
	s.kick()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if j, _ := st.Lookup(a.ID); j.State == store.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never claimed")
		}
	}
	if ps := s.poolStats(); ps.Workers != 1 || ps.Idle != 0 || ps.Submitted != 1 {
		t.Errorf("pool stats while running = %+v, want 1 worker, 0 idle, 1 submitted", ps)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer dcancel()
	if err := s.drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with an attempt running = %v, want DeadlineExceeded", err)
	}
	b, err := st.Submit(json.RawMessage(`{"impl":"b"}`))
	if err != nil {
		t.Fatal(err)
	}
	s.kick()
	close(release)
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := s.drain(wctx); err != nil {
		t.Fatalf("drain after the attempt returned = %v", err)
	}
	if j, _ := st.Lookup(a.ID); j.State != store.StateDone {
		t.Errorf("drained job = %s, want done", j.State)
	}
	if j, _ := st.Lookup(b.ID); j.State != store.StateQueued {
		t.Errorf("job submitted during the drain = %s, want queued", j.State)
	}
	if ps := s.poolStats(); ps.Idle != 1 || ps.Submitted != 1 || ps.Completed != 1 {
		t.Errorf("pool stats after the drain = %+v, want 1 idle, 1 submitted, 1 completed", ps)
	}
}
