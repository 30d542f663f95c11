package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dedc/internal/bench"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/store"
	"dedc/internal/telemetry"
)

// resumeRequest is a stuck-at job small enough to run in milliseconds whose
// search still passes a round boundary, so its journal holds a checkpoint.
func resumeRequest(t *testing.T) jobRequest {
	t.Helper()
	c := gen.Alu(2)
	sites := fault.Sites(c)
	device := fault.Inject(c, fault.Fault{Site: sites[len(sites)/2], Value: true})
	var good, bad bytes.Buffer
	if err := bench.Write(&good, c); err != nil {
		t.Fatal(err)
	}
	if err := bench.Write(&bad, device); err != nil {
		t.Fatal(err)
	}
	return jobRequest{Impl: good.String(), Device: bad.String(), Random: 256, Seed: 1, MaxErrors: 2}
}

// firstCheckpoint runs req uninterrupted under a run journal and returns the
// result with the journal split at its first checkpoint: the lines before it
// and the checkpoint line itself (newline included).
func firstCheckpoint(t *testing.T, req jobRequest) (res *jobResult, head, cp []byte) {
	t.Helper()
	var buf bytes.Buffer
	jl := telemetry.NewJournal(&buf)
	tr := telemetry.NewTracer(telemetry.Options{Journal: jl})
	res, err := runDiagnosis(telemetry.WithTracer(context.Background(), tr), req, runEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	journal := buf.Bytes()
	i := bytes.Index(journal, []byte(`"event":"checkpoint"`))
	if i < 0 {
		t.Fatal("the uninterrupted run journaled no checkpoint")
	}
	start := bytes.LastIndexByte(journal[:i], '\n') + 1
	end := i + bytes.IndexByte(journal[i:], '\n') + 1
	return res, journal[:start], journal[start:end]
}

// runToTerminal serves st with one worker whose attempt journals live in
// jdir until job id is terminal, and returns the job.
func runToTerminal(t *testing.T, st *store.Store, jdir, id string) store.Job {
	t.Helper()
	s := newServer(slog.New(slog.NewTextHandler(io.Discard, nil)), st, 1)
	s.journalDir = jdir
	ctx, cancel := context.WithCancel(context.Background())
	s.start(ctx)
	defer func() {
		cancel()
		dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer dcancel()
		s.drain(dctx)
	}()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		j, _ := st.Lookup(id)
		if j.State.Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s at attempt %d", id, j.State, j.Attempt)
		}
	}
}

// checkResumed requires j to have completed from a checkpoint with the
// uninterrupted run's answer.
func checkResumed(t *testing.T, j store.Job, want *jobResult) {
	t.Helper()
	if j.State != store.StateDone {
		t.Fatalf("job ended %s (%s), want done", j.State, j.Error)
	}
	var got jobResult
	if err := json.Unmarshal(j.Result, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Resumed {
		t.Error("result not marked resumed: the attempt restarted fresh")
	}
	if fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) || got.Status != want.Status {
		t.Errorf("resumed result %s %v, want %s %v", got.Status, got.Tuples, want.Status, want.Tuples)
	}
}

// TestResumeSkipsJournalsWithoutCheckpoint: attempt 3 of a job whose
// attempt-1 journal holds a checkpoint and whose newer attempt-2 journal
// holds none it can use resumes from attempt 1, with the same answer as an
// uninterrupted run. Taking the newest journal unchecked restarts fresh.
func TestResumeSkipsJournalsWithoutCheckpoint(t *testing.T) {
	req := resumeRequest(t)
	want, head, cp := firstCheckpoint(t, req)
	spec, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for name, a2 := range map[string][]byte{
		// Killed before its first round boundary.
		"no checkpoint": head,
		// Killed while writing its first checkpoint.
		"truncated checkpoint": append(append([]byte{}, head...), cp[:len(cp)/2]...),
		// A checkpoint whose frontier field was damaged on disk.
		"mangled checkpoint": append(append([]byte{}, head...), bytes.Replace(cp, []byte(`"frontier"`), []byte(`"xfrontier"`), 1)...),
	} {
		t.Run(name, func(t *testing.T) {
			jdir := t.TempDir()
			if err := os.WriteFile(filepath.Join(jdir, "job-1.a1.jsonl"), append(append([]byte{}, head...), cp...), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(jdir, "job-1.a2.jsonl"), a2, 0o644); err != nil {
				t.Fatal(err)
			}
			st := store.NewMemory(store.Options{MaxAttempts: 3})
			defer st.Close()
			j, err := st.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			// Two attempts claimed and returned unfinished: the next claim
			// is attempt 3.
			for a := 1; a <= 2; a++ {
				tok := fmt.Sprintf("earlier.c%d", a)
				if _, ok, err := st.Claim(tok); !ok || err != nil {
					t.Fatalf("claim %d: ok=%v err=%v", a, ok, err)
				}
				if err := st.Release(j.ID, tok); err != nil {
					t.Fatal(err)
				}
			}
			got := runToTerminal(t, st, jdir, j.ID)
			if got.Attempt != 3 {
				t.Errorf("job finished at attempt %d, want 3", got.Attempt)
			}
			checkResumed(t, got, want)
		})
	}
}

// TestOpenLegacyStoreResumes: a store directory written by a build that
// recorded checkpoint_ref events — a snapshot job carrying ref and a
// checkpoint timeline entry, checkpoint_ref events in the log — opens, and
// its orphaned job resumes from its attempt-1 journal.
func TestOpenLegacyStoreResumes(t *testing.T) {
	req := resumeRequest(t)
	want, head, cp := firstCheckpoint(t, req)
	spec, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journals")
	if err := os.Mkdir(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(jdir, "job-1.a1.jsonl")
	if err := os.WriteFile(ref, append(append([]byte{}, head...), cp...), 0o644); err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(ref)
	snap := fmt.Sprintf(`{"v":1,"last_seq":3,"next_id":1,"jobs":[`+
		`{"id":"job-1","spec":%s,"state":"running","attempt":1,"worker":"dedcd-7.c1","not_before":"0001-01-01T00:00:00Z","ref":%s,"created":"2023-11-14T22:13:20.001Z","finished":"0001-01-01T00:00:00Z","queue_seq":1,"timeline":[{"type":"submitted","ts":"2023-11-14T22:13:20.001Z"},{"type":"claimed","ts":"2023-11-14T22:13:20.003Z","attempt":1,"worker":"dedcd-7.c1"},{"type":"checkpoint","ts":"2023-11-14T22:13:20.005Z","attempt":1,"worker":"dedcd-7.c1"}]}]}`,
		spec, refJSON)
	var log bytes.Buffer
	for _, ev := range []string{
		fmt.Sprintf(`{"seq":4,"ts":1700000000009000000,"type":"checkpoint_ref","job":"job-1","worker":"dedcd-7.c1","ref":%s}`, refJSON),
		fmt.Sprintf(`{"seq":5,"ts":1700000000012000000,"type":"checkpoint_ref","job":"job-1","worker":"dedcd-7.c1","ref":%s}`, refJSON),
	} {
		log.Write(storeFrame([]byte(ev)))
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot"), storeFrame([]byte(snap)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "events.log"), log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err := store.Validate(dir); err != nil || rep.Jobs[store.StateRunning] != 1 {
		t.Fatalf("validate = %v, %v; want one running job", rep, err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := runToTerminal(t, st, jdir, "job-1")
	if got.Attempt != 2 {
		t.Errorf("job finished at attempt %d, want 2", got.Attempt)
	}
	checkResumed(t, got, want)
}

// storeFrame frames a store record as internal/store writes it: payload
// length and CRC-32C, little-endian, then the payload.
func storeFrame(payload []byte) []byte {
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	copy(buf[8:], payload)
	return buf
}
