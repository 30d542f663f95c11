package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dedc/internal/store"
	"dedc/internal/stream"
	"dedc/internal/telemetry"
)

// streamServer is testServer with a configurable store (retry tests need
// MaxAttempts > 1) and a fast stream heartbeat. configure, if any, runs
// before the workers start.
func streamServer(t *testing.T, sopt store.Options, workers int, run runner, configure ...func(*server)) (*server, *httptest.Server) {
	t.Helper()
	if sopt.BackoffBase == 0 {
		sopt.BackoffBase = 5 * time.Millisecond
		sopt.BackoffMax = 20 * time.Millisecond
	}
	st := store.NewMemory(sopt)
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := newServer(log, st, workers)
	s.streamHeartbeat = 50 * time.Millisecond
	if run != nil {
		s.run = run
	}
	for _, c := range configure {
		c(s)
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

// submitJob posts a minimal job (the injected runner ignores the spec).
func submitJob(t *testing.T, base string) string {
	t.Helper()
	resp, m := postJSON(t, base+"/v1/jobs", jobRequest{Impl: "INPUT(a)\nOUTPUT(z)\nz = BUFF(a)\n", Device: "x"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", resp.StatusCode, m)
	}
	id, _ := m["id"].(string)
	if id == "" {
		t.Fatalf("submit returned no id: %v", m)
	}
	return id
}

// collectStream consumes the SSE endpoint until the terminal lifecycle frame
// (or error), returning all frames in order.
func collectStream(t *testing.T, url, lastID string) []stream.Event {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("events status %d: %s", resp.StatusCode, body)
	}
	r := stream.NewReader(resp.Body)
	var out []stream.Event
	for {
		e, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("reading stream after %d events: %v", len(out), err)
		}
		out = append(out, e)
		if e.Type == stream.TypeLifecycle {
			var lc stream.Lifecycle
			if err := json.Unmarshal(e.Data, &lc); err != nil {
				t.Fatalf("lifecycle frame %q: %v", e.Data, err)
			}
			if lc.Terminal {
				return out
			}
		}
	}
}

// lifecycleTypes extracts the lifecycle entry types, asserting contiguous
// 0-based indexes (each exactly once) along the way.
func lifecycleTypes(t *testing.T, events []stream.Event, from int) []string {
	t.Helper()
	var types []string
	next := from
	for _, e := range events {
		if e.Type != stream.TypeLifecycle {
			continue
		}
		var lc stream.Lifecycle
		if err := json.Unmarshal(e.Data, &lc); err != nil {
			t.Fatal(err)
		}
		if lc.Index != next {
			t.Fatalf("lifecycle index %d (type %s), want %d: exactly-once order broken", lc.Index, lc.Type, next)
		}
		if e.ID != strconv.Itoa(lc.Index) {
			t.Fatalf("frame ID %q does not match index %d", e.ID, lc.Index)
		}
		next++
		types = append(types, lc.Type)
	}
	return types
}

// TestEventsStreamLifecycleOnly pins the stream contract clients rely on to
// learn that a job ended: while the attempt journals checkpoints and
// solutions, the stream carries only lifecycle frames, each frame's SSE ID is
// its timeline index, and the stream closes right after the terminal frame.
func TestEventsStreamLifecycleOnly(t *testing.T) {
	// The runner journals nothing until the stream is attached: it waits
	// for attached, which the test closes once it has read the claimed
	// frame.
	attached := make(chan struct{})
	s, ts := streamServer(t, store.Options{MaxAttempts: 1}, 1,
		func(ctx context.Context, req jobRequest, env runEnv) (*jobResult, error) {
			select {
			case <-attached:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			tr := telemetry.FromContext(ctx)
			for i := 1; i <= 3; i++ {
				tr.Event(ctx, telemetry.EventCheckpoint, telemetry.Int("step", 1), telemetry.Int("round", i))
				tr.Event(ctx, "solution", telemetry.Int("size", i))
			}
			return &jobResult{Mode: "stuckat", Status: "FirstSolution", Solved: true}, nil
		}, func(s *server) { s.journalDir = t.TempDir() })
	id := submitJob(t, ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := stream.NewReader(resp.Body)
	var events []stream.Event
	opened := false
	for {
		e, err := r.Next()
		if err != nil {
			t.Fatalf("reading stream after %d events: %v", len(events), err)
		}
		if e.Type != stream.TypeLifecycle {
			t.Fatalf("frame of type %q (%s) on the stream; only lifecycle frames may flow", e.Type, e.Data)
		}
		events = append(events, e)
		var lc stream.Lifecycle
		if jerr := json.Unmarshal(e.Data, &lc); jerr != nil {
			t.Fatal(jerr)
		}
		if lc.Type == store.TLClaimed && !opened {
			opened = true
			close(attached)
		}
		if lc.Terminal {
			break
		}
	}
	if e, err := r.Next(); err != io.EOF {
		t.Fatalf("stream still open after the terminal frame: next frame %+v, err %v", e, err)
	}

	types := lifecycleTypes(t, events, 0)
	want := []string{store.TLSubmitted, store.TLClaimed, store.TLCompleted}
	if fmt.Sprint(types) != fmt.Sprint(want) {
		t.Fatalf("lifecycle sequence %v, want %v", types, want)
	}
	journal, err := os.ReadFile(s.journalPath(id, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(journal), `"event":"checkpoint"`); n != 3 {
		t.Fatalf("attempt journal holds %d checkpoints, want 3: the attempt did not checkpoint under the stream", n)
	}
}

// TestEventsRequeueBeforeNewAttempt: when attempt 1 fails with retries left,
// the stream delivers requeued (attempt 1) strictly before claimed
// (attempt 2) — the order the store persisted.
func TestEventsRequeueBeforeNewAttempt(t *testing.T) {
	var calls atomic.Int32
	_, ts := streamServer(t, store.Options{MaxAttempts: 2}, 1,
		func(ctx context.Context, req jobRequest, env runEnv) (*jobResult, error) {
			if calls.Add(1) == 1 {
				return nil, fmt.Errorf("transient failure")
			}
			return &jobResult{Mode: "stuckat", Status: "FirstSolution", Solved: true}, nil
		})
	id := submitJob(t, ts.URL)
	events := collectStream(t, ts.URL+"/v1/jobs/"+id+"/events", "")

	types := lifecycleTypes(t, events, 0)
	want := []string{store.TLSubmitted, store.TLClaimed, store.TLRequeued, store.TLClaimed, store.TLCompleted}
	if fmt.Sprint(types) != fmt.Sprint(want) {
		t.Fatalf("lifecycle sequence %v, want %v", types, want)
	}
	// The attempt stamped on each claim is the store's monotone counter.
	var attempts []int
	for _, e := range events {
		var lc stream.Lifecycle
		if e.Type != stream.TypeLifecycle {
			continue
		}
		json.Unmarshal(e.Data, &lc)
		if lc.Type == store.TLClaimed {
			attempts = append(attempts, lc.Attempt)
		}
	}
	if len(attempts) != 2 || attempts[0] != 1 || attempts[1] != 2 {
		t.Errorf("claim attempts %v, want [1 2]", attempts)
	}
}

// TestEventsLongTimelineStalledClient: a job whose timeline grows to 21
// entries (nine failed attempts, then a completion) while its client reads
// nothing still reaches that client whole: every entry exactly once, in index
// order, then EOF.
func TestEventsLongTimelineStalledClient(t *testing.T) {
	const attempts = 10
	release := make(chan struct{})
	var calls atomic.Int32
	_, ts := streamServer(t, store.Options{MaxAttempts: attempts}, 1,
		func(ctx context.Context, req jobRequest, env runEnv) (*jobResult, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if calls.Add(1) < attempts {
				return nil, fmt.Errorf("transient failure")
			}
			return &jobResult{Mode: "stuckat", Status: "FirstSolution", Solved: true}, nil
		})
	id := submitJob(t, ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The handler answered, so the stream is attached before any attempt
	// ends; the client then reads nothing until the job is done.
	close(release)
	waitState(t, ts.URL, id, "done")

	r := stream.NewReader(resp.Body)
	var events []stream.Event
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("reading stream after %d events: %v", len(events), err)
		}
		events = append(events, e)
	}
	types := lifecycleTypes(t, events, 0)
	want := []string{store.TLSubmitted}
	for a := 1; a < attempts; a++ {
		want = append(want, store.TLClaimed, store.TLRequeued)
	}
	want = append(want, store.TLClaimed, store.TLCompleted)
	if fmt.Sprint(types) != fmt.Sprint(want) {
		t.Fatalf("lifecycle sequence %v (%d entries), want %v (%d)", types, len(types), want, len(want))
	}
}

// TestEventsResumeFromLastEventID: a client that saw a prefix reconnects with
// Last-Event-ID and receives exactly the remaining entries — against a fresh
// store incarnation, proving resume is served from the persisted timeline,
// not stream state.
func TestEventsResumeFromLastEventID(t *testing.T) {
	dir := t.TempDir()
	sopt := store.Options{MaxAttempts: 3,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond}
	st, err := store.Open(dir, sopt)
	if err != nil {
		t.Fatal(err)
	}
	// Incarnation 1: run the job to done without any stream attached.
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	s1 := newServer(log, st, 1)
	s1.run = func(ctx context.Context, req jobRequest, env runEnv) (*jobResult, error) {
		return &jobResult{Mode: "stuckat", Status: "FirstSolution", Solved: true}, nil
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	s1.start(ctx1)
	ts1 := httptest.NewServer(s1.handler(telemetry.NewRegistry()))
	id := submitJob(t, ts1.URL)
	waitState(t, ts1.URL, id, "done")
	full := collectStream(t, ts1.URL+"/v1/jobs/"+id+"/events", "")
	allTypes := lifecycleTypes(t, full, 0)
	if len(allTypes) < 3 {
		t.Fatalf("short timeline %v", allTypes)
	}
	ts1.Close()
	cancel1()
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	s1.drain(dctx)
	dcancel()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2: reopen the store (boot replay) and resume mid-timeline.
	st2, err := store.Open(dir, sopt)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2 := newServer(log, st2, 1)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	s2.start(ctx2)
	ts2 := httptest.NewServer(s2.handler(telemetry.NewRegistry()))
	defer ts2.Close()

	rest := collectStream(t, ts2.URL+"/v1/jobs/"+id+"/events", "0")
	restTypes := lifecycleTypes(t, rest, 1)
	if fmt.Sprint(restTypes) != fmt.Sprint(allTypes[1:]) {
		t.Fatalf("resume delivered %v, want %v (timeline %v minus index 0)", restTypes, allTypes[1:], allTypes)
	}
}

// TestEventsBadResumePosition: a non-numeric Last-Event-ID is a 400, not a
// silent full replay.
func TestEventsBadResumePosition(t *testing.T) {
	_, ts := streamServer(t, store.Options{}, 1, nil)
	id := submitJob(t, ts.URL)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestEventsHeartbeat: an idle stream carries comment heartbeats so
// intermediaries do not idle it out.
func TestEventsHeartbeat(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, ts := streamServer(t, store.Options{}, 1,
		func(ctx context.Context, req jobRequest, env runEnv) (*jobResult, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return &jobResult{Mode: "stuckat", Status: "Exhausted"}, nil
		})
	id := submitJob(t, ts.URL)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Raw-read the stream: heartbeats are ": hb" comment lines, invisible
	// through the Reader by design.
	buf := make([]byte, 4096)
	deadline := time.Now().Add(10 * time.Second)
	var seen []byte
	for time.Now().Before(deadline) {
		n, err := resp.Body.Read(buf)
		seen = append(seen, buf[:n]...)
		if strings.Contains(string(seen), ": hb") {
			return
		}
		if err != nil {
			break
		}
	}
	t.Fatalf("no heartbeat on an idle stream; got %q", seen)
}

// TestEventsNoGoroutineLeak: 100 subscribe/disconnect cycles leave no stream
// goroutine behind.
func TestEventsNoGoroutineLeak(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, ts := streamServer(t, store.Options{}, 1,
		func(ctx context.Context, req jobRequest, env runEnv) (*jobResult, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return &jobResult{Mode: "stuckat", Status: "Exhausted"}, nil
		})
	id := submitJob(t, ts.URL)
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		// Read one frame (the replayed submit) so the handler is live, then
		// vanish mid-stream.
		one := make([]byte, 64)
		resp.Body.Read(one)
		cancel()
		resp.Body.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if now := runtime.NumGoroutine(); now <= before+4 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after 100 subscribe/cancel cycles\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStatsEndpoint: /v1/stats carries job counts, pool occupancy, phase
// quantiles, counters and the cache block, and no running or stream block.
func TestStatsEndpoint(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	_, ts := streamServer(t, store.Options{}, 1,
		func(ctx context.Context, req jobRequest, env runEnv) (*jobResult, error) {
			close(started)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return &jobResult{Mode: "stuckat", Status: "FirstSolution", Solved: true}, nil
		})
	id := submitJob(t, ts.URL)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("attempt never started")
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st stream.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Jobs["running"] != 1 {
		t.Errorf("stats jobs = %v, want 1 running", st.Jobs)
	}
	if st.Pool.Workers != 1 {
		t.Errorf("pool workers = %d, want 1", st.Pool.Workers)
	}
	if _, ok := st.Phases["queue_wait"]; !ok {
		t.Errorf("phases missing queue_wait: %v", st.Phases)
	}
	if _, ok := st.Counters["submissions"]; !ok {
		t.Errorf("counters missing submissions: %v", st.Counters)
	}
	var blocks map[string]json.RawMessage
	if err := json.Unmarshal(raw, &blocks); err != nil {
		t.Fatal(err)
	}
	// The cache block is what load clients read: its hit and miss counts
	// must decode by name.
	var cache struct {
		Hits   *int64 `json:"hits"`
		Misses *int64 `json:"misses"`
	}
	if err := json.Unmarshal(blocks["cache"], &cache); err != nil || cache.Hits == nil || cache.Misses == nil {
		t.Errorf("cache block %s lacks hits/misses (err %v)", blocks["cache"], err)
	}
	for _, gone := range []string{"running", "stream"} {
		if b, ok := blocks[gone]; ok {
			t.Errorf("stats carries a %q block: %s", gone, b)
		}
	}
	close(release)
	waitState(t, ts.URL, id, "done")
}

// TestReadyzDrainWindow: /readyz is 503 before start, 200 while serving, and
// 503 again from the first drain signal — while /healthz stays 200
// throughout.
func TestReadyzDrainWindow(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	st := store.NewMemory(store.Options{})
	defer st.Close()
	s := newServer(log, st, 1)
	ts := httptest.NewServer(s.handler(telemetry.NewRegistry()))
	defer ts.Close()

	code, m := getJSON(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || m["reason"] != "starting" {
		t.Fatalf("pre-start readyz = %d %v, want 503 starting", code, m)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.start(ctx)
	if code, m = getJSON(t, ts.URL+"/readyz"); code != http.StatusOK || m["ready"] != true {
		t.Fatalf("live readyz = %d %v, want 200", code, m)
	}
	if code, _ = getJSON(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	s.beginDrain()
	if code, m = getJSON(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || m["reason"] != "draining" {
		t.Fatalf("draining readyz = %d %v, want 503 draining", code, m)
	}
	if code, _ = getJSON(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200 (liveness is not readiness)", code)
	}
}
