package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"dedc/internal/bench"
	"dedc/internal/circuit"
	"dedc/internal/diagnose"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/store"
	"dedc/internal/telemetry"
	"dedc/internal/tpg"
)

// testServer builds a server over an in-memory store with fast retry
// tunings and starts its workers. A positive maxQueued sets the admission
// cap.
func testServer(t *testing.T, workers, maxQueued int, run runner) (*server, *httptest.Server) {
	t.Helper()
	return loggedTestServer(t, slog.New(slog.NewTextHandler(io.Discard, nil)), workers, maxQueued, run)
}

// loggedTestServer is testServer with the daemon's log written to log.
func loggedTestServer(t *testing.T, log *slog.Logger, workers, maxQueued int, run runner) (*server, *httptest.Server) {
	t.Helper()
	st := store.NewMemory(store.Options{
		MaxAttempts: 1,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	})
	s := newServer(log, st, workers)
	if maxQueued > 0 {
		s.maxQueued = maxQueued
	}
	if run != nil {
		s.run = run
	}
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
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, m
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, m
}

// waitState polls a job's status until it reaches one of the wanted states.
func waitState(t *testing.T, base, id string, want ...string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		_, m := getJSON(t, base+"/v1/jobs/"+id)
		state, _ := m["state"].(string)
		for _, w := range want {
			if state == w {
				return state
			}
		}
		switch state {
		case "queued", "running":
			time.Sleep(10 * time.Millisecond)
		default:
			t.Fatalf("job %s reached %q, wanted one of %v (err=%v)", id, state, want, m["error"])
		}
	}
	t.Fatalf("job %s never reached %v", id, want)
	return ""
}

func TestSubmitStatusResult(t *testing.T) {
	_, ts := testServer(t, 2, 0, func(context.Context, jobRequest, runEnv) (*jobResult, error) {
		return &jobResult{Mode: "repair", Status: "FirstSolution", Solved: true, Corrections: []string{"fix"}}, nil
	})
	resp, m := postJSON(t, ts.URL+"/v1/jobs", jobRequest{Impl: "x"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	id := m["id"].(string)
	waitState(t, ts.URL, id, "done")
	code, res := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK || res["solved"] != true || res["mode"] != "repair" {
		t.Errorf("result = %d %v", code, res)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job status code = %d", code)
	}
}

func TestResultConflictWhileRunning(t *testing.T) {
	release := make(chan struct{})
	_, ts := testServer(t, 1, 0, func(ctx context.Context, _ jobRequest, _ runEnv) (*jobResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &jobResult{Status: "Complete"}, nil
	})
	defer close(release)
	_, m := postJSON(t, ts.URL+"/v1/jobs", jobRequest{Impl: "x"})
	id := m["id"].(string)
	waitState(t, ts.URL, id, "running")
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result"); code != http.StatusConflict {
		t.Errorf("result while running = %d, want 409", code)
	}
}

// TestPanickingJobIsSurvived: a job that panics is terminally failed
// (poison-pill: retries would panic again), its stack logged, and the
// service keeps serving.
func TestPanickingJobIsSurvived(t *testing.T) {
	logs := &syncBuffer{}
	_, ts := loggedTestServer(t, slog.New(slog.NewTextHandler(logs, nil)), 1, 0, func(_ context.Context, req jobRequest, _ runEnv) (*jobResult, error) {
		if req.Impl == "poison" {
			panic("engine exploded")
		}
		return &jobResult{Status: "Complete", Solved: true}, nil
	})
	_, m := postJSON(t, ts.URL+"/v1/jobs", jobRequest{Impl: "poison"})
	poisonID := m["id"].(string)
	waitState(t, ts.URL, poisonID, "failed")

	// The same worker must process the next job normally.
	_, m = postJSON(t, ts.URL+"/v1/jobs", jobRequest{Impl: "fine"})
	waitState(t, ts.URL, m["id"].(string), "done")

	code, health := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || health["ok"] != true {
		t.Errorf("healthz after panic = %d %v", code, health)
	}
	// The worker logs the job's ID, the panic value and the stack of the
	// panicking runner.
	var record string
	for deadline := time.Now().Add(5 * time.Second); record == "" && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		for _, line := range strings.Split(logs.String(), "\n") {
			if strings.Contains(line, "job panicked") {
				record = line
			}
		}
	}
	for _, want := range []string{"id=" + poisonID, "engine exploded", "stack=", "runtime/debug.Stack", "TestPanickingJobIsSurvived"} {
		if !strings.Contains(record, want) {
			t.Errorf("panic log record lacks %q: %q", want, record)
		}
	}
	// The panicked job's result endpoint reports the terminal failure.
	code, res := getJSON(t, ts.URL+"/v1/jobs/"+poisonID+"/result")
	if code != http.StatusOK || res["state"] != "failed" {
		t.Errorf("panicked result = %d %v", code, res)
	}
	if errStr, _ := res["error"].(string); !strings.Contains(errStr, "panicked") {
		t.Errorf("panicked job error = %q, want the panic recorded", errStr)
	}
}

// TestClaimTokensAreUniquePerAttempt: claim identity must distinguish two
// attempts hosted by the same process — with a plain per-process token, a
// stale attempt of a re-claimed job would pass the store's claim check and
// settle its successor's claim.
func TestClaimTokensAreUniquePerAttempt(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	st := store.NewMemory(store.Options{})
	defer st.Close()
	s := newServer(log, st, 1)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		tok := s.claimToken()
		if seen[tok] {
			t.Fatalf("claimToken minted %q twice", tok)
		}
		if !strings.HasPrefix(tok, s.worker) {
			t.Fatalf("token %q does not extend the process identity %q", tok, s.worker)
		}
		seen[tok] = true
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := testServer(t, 1, 0, func(ctx context.Context, _ jobRequest, _ runEnv) (*jobResult, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	_, m := postJSON(t, ts.URL+"/v1/jobs", jobRequest{Impl: "x"})
	id := m["id"].(string)
	waitState(t, ts.URL, id, "running")
	resp, _ := postJSON(t, ts.URL+"/v1/jobs/"+id+"/cancel", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}
	waitState(t, ts.URL, id, "cancelled")
}

func TestLoadSheddingReturns503(t *testing.T) {
	release := make(chan struct{})
	_, ts := testServer(t, 1, 1, func(ctx context.Context, _ jobRequest, _ runEnv) (*jobResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &jobResult{Status: "Complete"}, nil
	})
	defer close(release)
	// With the admission cap at 1, submissions keep landing until one finds
	// the durable queue full; the worker never finishes, so the backlog can
	// only grow.
	shed := false
	for i := 0; i < 20 && !shed; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/jobs", jobRequest{Impl: fmt.Sprintf("job-%d", i)})
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 without Retry-After")
			}
			shed = true
		}
	}
	if !shed {
		t.Error("no submission was shed with a full queue")
	}
}

func TestFailedJobReportsError(t *testing.T) {
	_, ts := testServer(t, 1, 0, func(context.Context, jobRequest, runEnv) (*jobResult, error) {
		return nil, fmt.Errorf("bad input")
	})
	_, m := postJSON(t, ts.URL+"/v1/jobs", jobRequest{Impl: "x"})
	id := m["id"].(string)
	waitState(t, ts.URL, id, "failed")
	_, res := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
	if errStr, _ := res["error"].(string); !strings.Contains(errStr, "bad input") {
		t.Errorf("failed result = %v", res)
	}
}

// TestFailedAttemptIsRetried: with attempts left, a failing attempt requeues
// with backoff and runs again — the capped-retry policy end to end.
func TestFailedAttemptIsRetried(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	st := store.NewMemory(store.Options{
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	s := newServer(log, st, 1)
	attempts := make(chan int, 8)
	s.run = func(_ context.Context, _ jobRequest, _ runEnv) (*jobResult, error) {
		select {
		case attempts <- 1:
		default:
		}
		if len(attempts) < 2 {
			return nil, fmt.Errorf("transient failure")
		}
		return &jobResult{Status: "Complete", Solved: true}, nil
	}
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

	_, m := postJSON(t, ts.URL+"/v1/jobs", jobRequest{Impl: "flaky"})
	id := m["id"].(string)
	waitState(t, ts.URL, id, "done")
	j, _ := st.Lookup(id)
	if j.Attempt != 2 {
		t.Errorf("job completed on attempt %d, want 2 (one retry)", j.Attempt)
	}
}

// TestEvictedJobReturns410: after compaction prunes a terminal job, its ID
// answers 410 Gone — distinguishable from a never-submitted 404 — and its
// attempt journals are deleted, while the retained job keeps its journal.
func TestEvictedJobReturns410(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{RetainTerminal: 1, CompactEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(log, st, 1)
	s.journalDir = filepath.Join(dir, "journals")
	if err := os.Mkdir(s.journalDir, 0o755); err != nil {
		t.Fatal(err)
	}
	s.run = func(context.Context, jobRequest, runEnv) (*jobResult, error) {
		return &jobResult{Status: "Complete"}, nil
	}
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

	var ids []string
	for i := 0; i < 3; i++ {
		_, m := postJSON(t, ts.URL+"/v1/jobs", jobRequest{Impl: "x"})
		id := m["id"].(string)
		ids = append(ids, id)
		waitState(t, ts.URL, id, "done")
	}
	journal := func(id string) string { return filepath.Join(s.journalDir, id+".a1.jsonl") }
	for _, id := range ids {
		if _, err := os.Stat(journal(id)); err != nil {
			t.Fatalf("attempt journal of %s missing before compaction: %v", id, err)
		}
	}
	if err := st.CompactNow(); err != nil {
		t.Fatal(err)
	}
	// Eviction reaches the journal cleanup through the watch pump, so poll.
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range ids[:2] {
		for {
			if _, err := os.Stat(journal(id)); errors.Is(err, os.ErrNotExist) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("journal of evicted job %s still on disk", id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if _, err := os.Stat(journal(ids[2])); err != nil {
		t.Errorf("journal of retained job %s: %v", ids[2], err)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/"+ids[0]); code != http.StatusGone {
		t.Errorf("evicted job status = %d, want 410", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/"+ids[0]+"/result"); code != http.StatusGone {
		t.Errorf("evicted job result = %d, want 410", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/"+ids[2]); code != http.StatusOK {
		t.Errorf("retained job status = %d, want 200", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/job-999"); code != http.StatusNotFound {
		t.Errorf("never-submitted job status = %d, want 404", code)
	}
}

func TestBadRequestBody(t *testing.T) {
	_, ts := testServer(t, 1, 0, nil)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body = %d, want 400", resp.StatusCode)
	}
}

// TestRealStuckAtJob exercises the production runner end to end over an
// injected fault on a small ALU.
func TestRealStuckAtJob(t *testing.T) {
	c := gen.Alu(2)
	var good bytes.Buffer
	if err := bench.Write(&good, c); err != nil {
		t.Fatal(err)
	}
	sites := fault.Sites(c)
	device := fault.Inject(c, fault.Fault{Site: sites[len(sites)/2], Value: true})
	var bad bytes.Buffer
	if err := bench.Write(&bad, device); err != nil {
		t.Fatal(err)
	}

	_, ts := testServer(t, 1, 0, nil)
	_, m := postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Impl: good.String(), Device: bad.String(), Random: 256, MaxErrors: 2,
	})
	id := m["id"].(string)
	waitState(t, ts.URL, id, "done")
	code, res := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result = %d %v", code, res)
	}
	if res["mode"] != "stuckat" || res["solved"] != true {
		t.Errorf("result = %v", res)
	}
	if tuples, _ := res["tuples"].([]any); len(tuples) == 0 {
		t.Error("no tuples in result")
	}
	if v, _ := res["verified"].(float64); v < 1 {
		t.Errorf("verified = %v, want >= 1 (gate on by default)", res["verified"])
	}
}

// TestCancelledJobLeavesResumableJournal is the drain contract in unit form:
// with a journal dir set, a job interrupted mid-run leaves a per-attempt
// journal from which diagnose.ResumeStuckAtFromJournal (the engine behind
// `dedc -resume` and requeued-job resume) converges to exactly the
// uninterrupted solution set.
func TestCancelledJobLeavesResumableJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a multi-hundred-ms diagnosis twice")
	}
	// Same fixture shape as the cmd/dedc chaos gate: big enough that the
	// cancel reliably lands mid-search, after the first checkpoint.
	impl := gen.ArrayMultiplier(7)
	sites := fault.Sites(impl)
	device := fault.Inject(impl,
		fault.Fault{Site: sites[len(sites)/3], Value: false},
		fault.Fault{Site: sites[len(sites)/2], Value: true},
		fault.Fault{Site: sites[2*len(sites)/3], Value: false},
	)
	var implText, devText bytes.Buffer
	if err := bench.Write(&implText, impl); err != nil {
		t.Fatal(err)
	}
	if err := bench.Write(&devText, device); err != nil {
		t.Fatal(err)
	}

	s, ts := testServer(t, 1, 0, nil)
	s.journalDir = t.TempDir()

	_, m := postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Impl: implText.String(), Device: devText.String(),
		Random: 1024, Seed: 1, MaxErrors: 3,
	})
	id := m["id"].(string)
	journal := filepath.Join(s.journalDir, id+".a1.jsonl")

	// Checkpoints are flushed as they are written, so the first one is
	// visible on disk while the job is still running; cancel right then.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, _ := os.ReadFile(journal); bytes.Contains(b, []byte(`"event":"checkpoint"`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint ever appeared in the attempt journal")
		}
		time.Sleep(2 * time.Millisecond)
	}
	postJSON(t, ts.URL+"/v1/jobs/"+id+"/cancel", struct{}{})
	waitState(t, ts.URL, id, "cancelled", "done")
	// The cancelled state flips before the engine finishes unwinding; drain
	// the workers so the journal has stopped moving before we read it back.
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := s.drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := diagnose.LatestCheckpoint(bytes.NewReader(data))
	if err != nil || cp == nil {
		t.Fatalf("LatestCheckpoint = %v, %v; want a resumable checkpoint", cp, err)
	}

	// Rebuild the exact inputs runDiagnosis used and resume from the journal;
	// the result must match an uninterrupted run of the same problem.
	ctx := context.Background()
	vecs := tpg.BuildVectorsContext(ctx, impl, tpg.Options{Random: 1024, Seed: 1, Deterministic: true})
	devOut := diagnose.DeviceOutputs(device, vecs.PI, vecs.N)
	opt := diagnose.Options{MaxErrors: 3, Seed: 1}

	want, err := diagnose.DiagnoseStuckAtContext(ctx, impl, devOut, vecs.PI, vecs.N, opt)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	got, err := diagnose.ResumeStuckAtFromJournal(ctx, bytes.NewReader(data), impl, devOut, vecs.PI, vecs.N, opt)
	if err != nil {
		t.Fatalf("resume from attempt journal: %v", err)
	}
	if gk, wk := stuckAtKeys(impl, got), stuckAtKeys(impl, want); !equalKeys(gk, wk) {
		t.Errorf("resumed solutions diverge\n got: %v\nwant: %v", gk, wk)
	}
	if got.Stats.Verified == 0 {
		t.Error("resumed run reported no verified solutions; gate should be on by default")
	}
}

func stuckAtKeys(c *circuit.Circuit, res *diagnose.StuckAtResult) []string {
	keys := make([]string, 0, len(res.Tuples))
	for _, tu := range res.Tuples {
		parts := make([]string, len(tu))
		for i, f := range tu {
			parts[i] = fmt.Sprintf("%s/%d", f.Site.Name(c), b2i(f.Value))
		}
		sort.Strings(parts)
		keys = append(keys, strings.Join(parts, "+"))
	}
	sort.Strings(keys)
	return keys
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
