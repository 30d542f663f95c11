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
	"testing"
	"time"

	"dedc/internal/bench"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/store"
	"dedc/internal/supervise"
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
	s := newServer(slog.New(slog.NewTextHandler(io.Discard, nil)), st, supervise.Options{Workers: 1})
	s.journalDir = jdir
	ctx, cancel := context.WithCancel(context.Background())
	s.start(ctx)
	t.Cleanup(func() {
		cancel()
		dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer dcancel()
		s.pool.Drain(dctx)
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
// dispatcher with journals, heartbeats and progress hooks, leaves the
// goroutine count where it was before the burst.
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

	// A lease far longer than the test: a heartbeat that outlives its
	// attempt would only stop at its first failed renewal, TTL/3 later.
	st := store.NewMemory(store.Options{LeaseTTL: time.Minute, MaxAttempts: 1})
	s := newServer(slog.New(slog.NewTextHandler(io.Discard, nil)), st, supervise.Options{Workers: 2, QueueDepth: 2})
	s.leaseTTL = time.Minute
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
		s.pool.Drain(dctx)
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
