package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"dedc/internal/bench"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/stream"
)

// TestChaosStream is the streaming-status durability gate: SSE clients tail a
// job's event stream while the daemon is SIGKILLed mid-stream and restarted
// over the same store directory on the same address. Each client's reconnect
// carries Last-Event-ID, so after convergence every client must hold the
// job's full persisted lifecycle — every timeline index exactly once, in
// order, matching GET /v1/jobs/{id} — with no duplicates from the replayed
// prefix and no holes from the crash.
//
//	CHAOS_STREAM_TRIALS=10 go test -run TestChaosStream ./cmd/dedcd
func TestChaosStream(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	trials := 2
	if s := os.Getenv("CHAOS_STREAM_TRIALS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad CHAOS_STREAM_TRIALS=%q", s)
		}
		trials = n
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "dedcd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building dedcd: %v\n%s", err, out)
	}

	// The store-chaos fixture: long enough that the kill lands mid-attempt.
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
	req := jobRequest{
		Impl: implText.String(), Device: devText.String(),
		Random: 1024, Seed: 1, MaxErrors: 3,
	}

	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			// A fixed pre-picked port keeps the stream URL valid across the
			// kill/restart, so the client's reconnect loop finds the reborn
			// daemon without rediscovery.
			addr := reserveAddr(t)
			storeDir := filepath.Join(dir, fmt.Sprintf("store%02d", trial))
			d := startStreamDaemon(t, bin, storeDir, addr)
			base := "http://" + addr

			_, m := postJSON(t, base+"/v1/jobs", req)
			id, _ := m["id"].(string)
			if id == "" {
				t.Fatalf("submit: %v", m)
			}

			// Two independent tails: both must converge on the same set.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type tail struct {
				events []stream.Lifecycle
				err    error
			}
			tails := make([]tail, 2)
			var wg sync.WaitGroup
			claimed := make(chan struct{}, len(tails))
			for i := range tails {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c := &stream.Client{URL: base + "/v1/jobs/" + id + "/events",
						Retry: 50 * time.Millisecond}
					tails[i].err = c.Run(ctx, func(e stream.Event) error {
						if e.Type != stream.TypeLifecycle {
							return nil
						}
						var lc stream.Lifecycle
						if err := json.Unmarshal(e.Data, &lc); err != nil {
							return err
						}
						tails[i].events = append(tails[i].events, lc)
						if lc.Type == "claimed" {
							select {
							case claimed <- struct{}{}:
							default:
							}
						}
						if lc.Terminal {
							return stream.ErrStop
						}
						return nil
					})
				}(i)
			}

			// Kill only once the stream is demonstrably live (a client saw the
			// claim), so the crash always lands mid-stream, mid-attempt.
			select {
			case <-claimed:
			case <-time.After(2 * time.Minute):
				t.Fatal("no client saw the job claimed")
			}
			d.cmd.Process.Signal(syscall.SIGKILL)
			d.cmd.Wait()

			d2 := startStreamDaemon(t, bin, storeDir, addr)
			defer d2.stop(t)
			state, _ := waitTerminal(t, base, id, time.Now().Add(5*time.Minute))
			if state != "done" {
				t.Fatalf("job ended %q after restart, want done", state)
			}
			wg.Wait()

			// The persisted timeline is the oracle for what every client must
			// have seen exactly once.
			_, job := getJSON(t, base+"/v1/jobs/"+id)
			timeline, _ := job["timeline"].([]any)
			if len(timeline) == 0 {
				t.Fatalf("job detail carries no timeline: %v", job)
			}
			var wantTypes []string
			for _, e := range timeline {
				entry, _ := e.(map[string]any)
				wantTypes = append(wantTypes, fmt.Sprint(entry["type"]))
			}
			for i, tl := range tails {
				if tl.err != nil {
					t.Fatalf("client %d: %v", i, tl.err)
				}
				if len(tl.events) != len(wantTypes) {
					t.Fatalf("client %d saw %d lifecycle frames, want %d (%v)",
						i, len(tl.events), len(wantTypes), wantTypes)
				}
				for j, lc := range tl.events {
					if lc.Index != j {
						t.Fatalf("client %d frame %d has index %d: exactly-once order broken", i, j, lc.Index)
					}
					if lc.Type != wantTypes[j] {
						t.Fatalf("client %d frame %d is %q, want %q", i, j, lc.Type, wantTypes[j])
					}
				}
				if last := tl.events[len(tl.events)-1]; !last.Terminal || last.State != "done" {
					t.Fatalf("client %d final frame %+v, want terminal done", i, last)
				}
			}
		})
	}
}

// reserveAddr picks a free localhost port and releases it, so the daemon (and
// its post-kill successor) can bind the same address.
func reserveAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startStreamDaemon is startStoreDaemon on a caller-chosen address, retrying
// the bind briefly: after a SIGKILL the old socket can linger a moment.
func startStreamDaemon(t *testing.T, bin, storeDir, addr string) *storeDaemon {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		cmd := exec.Command(bin,
			"-addr", addr, "-workers", "2",
			"-store-dir", storeDir,
			"-max-attempts", "10", "-retry-backoff", "25ms",
			"-drain-timeout", "15s", "-drain-grace", "0s")
		stderr := &syncBuffer{}
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		started := false
		for time.Now().Before(deadline) {
			if addrRe.MatchString(stderr.String()) {
				started = true
				break
			}
			if cmd.ProcessState != nil || bytes.Contains([]byte(stderr.String()), []byte("listen failed")) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if started {
			t.Cleanup(func() { cmd.Process.Kill() })
			return &storeDaemon{cmd: cmd, stderr: stderr, base: "http://" + addr}
		}
		cmd.Process.Kill()
		cmd.Wait()
		if time.Now().After(deadline) {
			t.Fatalf("daemon never bound %s:\n%s", addr, stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
