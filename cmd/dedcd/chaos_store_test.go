package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"dedc/internal/bench"
	"dedc/internal/fault"
	"dedc/internal/gen"
)

// TestChaosStoreKill is the durability gate for the event-sourced job store:
// it SIGKILLs a real dedcd at random points mid-workload and checks that a
// restart over the same store directory loses nothing — every accepted job
// still exists and reaches a terminal state, and the completed jobs' solution
// sets are identical to an uninterrupted run. Every post-kill restart must
// also be listening within restartBound, so a crash costs the service only
// seconds of availability.
//
// Defaults to a handful of trials so the regular test run stays quick; the
// `make chaos-store` target scales it up:
//
//	CHAOS_STORE_TRIALS=50 go test -run TestChaosStoreKill ./cmd/dedcd
//	CHAOS_STORE_RACE=1 ...   # build the killed binary with -race
func TestChaosStoreKill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	trials := 3
	if s := os.Getenv("CHAOS_STORE_TRIALS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad CHAOS_STORE_TRIALS=%q", s)
		}
		trials = n
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "dedcd")
	buildArgs := []string{"build", "-o", bin}
	if os.Getenv("CHAOS_STORE_RACE") != "" {
		buildArgs = append(buildArgs, "-race")
	}
	if out, err := exec.Command("go", append(buildArgs, ".")...).CombinedOutput(); err != nil {
		t.Fatalf("building dedcd: %v\n%s", err, out)
	}

	// The cmd/dedc chaos fixture: a 7-bit multiplier with three injected
	// faults runs long enough to leave a wide window of mid-search kill
	// points, and checkpoints several times along the way.
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

	// Uninterrupted reference run through the same binary: its solution keys
	// are the oracle, and its duration sizes the kill window.
	d := startStoreDaemon(t, bin, filepath.Join(dir, "ref"))
	start := time.Now()
	_, m := postJSON(t, d.base+"/v1/jobs", req)
	refID, _ := m["id"].(string)
	if refID == "" {
		t.Fatalf("reference submit: %v", m)
	}
	state, _ := waitTerminal(t, d.base, refID, time.Now().Add(5*time.Minute))
	window := time.Since(start)
	if state != "done" {
		t.Fatalf("reference job ended %q", state)
	}
	refKeys := resultTupleKeys(t, d.base, refID)
	d.stop(t)
	if len(refKeys) == 0 {
		t.Fatal("reference run found no solutions; fixture is too easy or broken")
	}
	t.Logf("reference: %d solutions in %v", len(refKeys), window)

	rng := rand.New(rand.NewSource(20260808))
	resumed := 0
	var slowest time.Duration
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			storeDir := filepath.Join(dir, fmt.Sprintf("store%02d", trial))
			d := startStoreDaemon(t, bin, storeDir)

			var ids []string
			for i := 0; i < 2; i++ {
				_, m := postJSON(t, d.base+"/v1/jobs", req)
				id, _ := m["id"].(string)
				if id == "" {
					t.Fatalf("submit %d: %v", i, m)
				}
				ids = append(ids, id)
			}

			// Anywhere from "barely started" to "almost done" — including
			// kills before the first checkpoint (recovery must rerun fresh)
			// and after completion (results must already be durable).
			delay := time.Duration(rng.Int63n(int64(3*window/2) + 1))
			time.Sleep(delay)
			d.cmd.Process.Signal(syscall.SIGKILL)
			d.cmd.Wait()

			// Restart over the same store directory: boot replay must requeue
			// the orphans and finish the workload.
			d2 := startStoreDaemon(t, bin, storeDir)
			defer d2.stop(t)
			slowest = max(slowest, d2.boot)
			if d2.boot > restartBound {
				t.Errorf("kill at %v: restart took %v to listen, over the %v bound",
					delay, d2.boot, restartBound)
			}
			deadline := time.Now().Add(5 * time.Minute)
			for _, id := range ids {
				state, _ := waitTerminal(t, d2.base, id, deadline)
				if state != "done" {
					t.Fatalf("kill at %v: job %s ended %q, want done", delay, id, state)
				}
				keys := resultTupleKeys(t, d2.base, id)
				if !equalKeys(keys, refKeys) {
					t.Errorf("kill at %v: job %s solutions diverge\n got: %v\nwant: %v",
						delay, id, keys, refKeys)
				}
				if _, res := getJSON(t, d2.base+"/v1/jobs/"+id+"/result"); res["resumed"] == true {
					resumed++
				}
			}
		})
	}
	// Resume-from-checkpoint is timing-dependent (a kill before the first
	// checkpoint reruns fresh), so it is reported rather than asserted here;
	// TestRestartResumesFromCheckpoint pins it deterministically.
	t.Logf("%d of %d post-kill completions resumed a checkpoint", resumed, 2*trials)
	t.Logf("slowest restart: %v from exec to listening (bound %v)", slowest, restartBound)
}

// TestRestartResumesFromCheckpoint kills dedcd only after a checkpoint line
// has reached the attempt journal, so the post-restart attempt must resume
// from that journal rather than recompute from scratch. The checkpoint
// survives the SIGKILL because the journal writes it through at once; the
// write is not fsync'd, so it would not survive a power loss.
func TestRestartResumesFromCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dedcd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building dedcd: %v\n%s", err, out)
	}
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

	storeDir := filepath.Join(dir, "store")
	d := startStoreDaemon(t, bin, storeDir)
	_, m := postJSON(t, d.base+"/v1/jobs", jobRequest{
		Impl: implText.String(), Device: devText.String(),
		Random: 1024, Seed: 1, MaxErrors: 3,
	})
	id, _ := m["id"].(string)
	if id == "" {
		t.Fatalf("submit: %v", m)
	}

	// The restarted daemon finds attempt 1's journal from the job ID and the
	// attempt number, so a checkpoint line on disk is all the resume needs.
	journal := filepath.Join(storeDir, "journals", id+".a1.jsonl")
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if b, _ := os.ReadFile(journal); bytes.Contains(b, []byte(`"event":"checkpoint"`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint appeared in %s", journal)
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.cmd.Process.Signal(syscall.SIGKILL)
	d.cmd.Wait()

	d2 := startStoreDaemon(t, bin, storeDir)
	defer d2.stop(t)
	state, _ := waitTerminal(t, d2.base, id, time.Now().Add(5*time.Minute))
	if state != "done" {
		t.Fatalf("job ended %q after restart, want done", state)
	}
	_, res := getJSON(t, d2.base+"/v1/jobs/"+id+"/result")
	if res["resumed"] != true {
		t.Errorf("post-restart result not marked resumed: %v", res)
	}
}

// restartBound is how soon, from exec, a daemon restarted over a killed
// one's store directory must be listening: boot replay, orphan requeue and
// the compaction of the recovered log all happen before the listener is
// announced.
const restartBound = 4 * time.Second

// storeDaemon is one dedcd subprocess bound to a durable store directory.
type storeDaemon struct {
	cmd    *exec.Cmd
	stderr *syncBuffer
	base   string
	// boot is the time from exec to the "dedcd listening" log line (to the
	// 10 ms poll granularity of startStoreDaemon).
	boot time.Duration
}

func startStoreDaemon(t *testing.T, bin, storeDir string) *storeDaemon {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-workers", "2",
		"-store-dir", storeDir,
		"-max-attempts", "10", "-retry-backoff", "25ms",
		"-drain-timeout", "15s")
	stderr := &syncBuffer{}
	cmd.Stderr = stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	var addr string
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); {
		if m := addrRe.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("no listen address announced:\n%s", stderr.String())
	}
	return &storeDaemon{cmd: cmd, stderr: stderr, base: "http://" + addr, boot: time.Since(start)}
}

// stop drains the daemon cleanly; jobs still running ride out the drain.
func (d *storeDaemon) stop(t *testing.T) {
	t.Helper()
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		t.Fatalf("dedcd did not exit after SIGTERM:\n%s", d.stderr.String())
	}
}

// waitTerminal polls a job until it leaves the queued/running states. A 404
// or 410 is an immediate failure: an accepted job vanished across a crash.
func waitTerminal(t *testing.T, base, id string, deadline time.Time) (string, map[string]any) {
	t.Helper()
	for time.Now().Before(deadline) {
		code, m := getJSON(t, base+"/v1/jobs/"+id)
		if code == 404 || code == 410 {
			t.Fatalf("job %s lost after restart (status %d)", id, code)
		}
		switch state, _ := m["state"].(string); state {
		case "done", "failed", "cancelled":
			return state, m
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return "", nil
}

// resultTupleKeys fetches a done job's result and canonicalizes its solution
// tuples for order-independent comparison.
func resultTupleKeys(t *testing.T, base, id string) []string {
	t.Helper()
	code, res := getJSON(t, base+"/v1/jobs/"+id+"/result")
	if code != 200 {
		t.Fatalf("result for %s = %d %v", id, code, res)
	}
	tuples, _ := res["tuples"].([]any)
	keys := make([]string, 0, len(tuples))
	for _, tu := range tuples {
		parts, _ := tu.([]any)
		names := make([]string, 0, len(parts))
		for _, p := range parts {
			names = append(names, fmt.Sprint(p))
		}
		sort.Strings(names)
		keys = append(keys, strings.Join(names, "+"))
	}
	sort.Strings(keys)
	return keys
}
