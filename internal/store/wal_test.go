package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte(`{}`), []byte(`{"seq":1}`), {}, bytes.Repeat([]byte{0xAB}, 4096)}
	var buf bytes.Buffer
	for _, p := range payloads {
		buf.Write(frame(p))
	}
	var got [][]byte
	torn, err := readFrames(&buf, maxRecord, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil || torn {
		t.Fatalf("readFrames: torn=%v err=%v", torn, err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Errorf("frame %d: got %q, want %q", i, got[i], payloads[i])
		}
	}
}

func TestReadFramesTornTail(t *testing.T) {
	whole := frame([]byte(`{"a":1}`))
	cases := []struct {
		name string
		data []byte
	}{
		{"short header", append(append([]byte(nil), whole...), 0x01, 0x02)},
		{"length past EOF", append(append([]byte(nil), whole...), frame([]byte(`{"b":2}`))[:12]...)},
		{"bad crc on final frame", func() []byte {
			d := append(append([]byte(nil), whole...), frame([]byte(`{"b":2}`))...)
			d[len(d)-1] ^= 0xFF
			return d
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var n int
			torn, err := readFrames(bytes.NewReader(tc.data), maxRecord, func([]byte) error { n++; return nil })
			if err != nil {
				t.Fatalf("err = %v, want torn tail", err)
			}
			if !torn || n != 1 {
				t.Errorf("torn=%v frames=%d, want torn=true frames=1 (clean prefix)", torn, n)
			}
		})
	}
}

func TestReadFramesInteriorCorruption(t *testing.T) {
	mk := func(mut func(d []byte) []byte) []byte {
		var buf bytes.Buffer
		buf.Write(frame([]byte(`{"a":1}`)))
		buf.Write(frame([]byte(`{"b":2}`)))
		buf.Write(frame([]byte(`{"c":3}`)))
		return mut(buf.Bytes())
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"bit flip mid-log", mk(func(d []byte) []byte {
			d[len(d)/2] ^= 0x01 // lands in the middle frame, data after it
			return d
		})},
		{"absurd length field", mk(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[0:4], maxRecord+1)
			return d
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readFrames(bytes.NewReader(tc.data), maxRecord, func([]byte) error { return nil })
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestOpenRecoversFullState: kill-restart equivalence — a store reopened from
// disk serves exactly the state the previous incarnation had.
func TestOpenRecoversFullState(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	opt := Options{MaxAttempts: 3, Now: clk.Now}
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	done := submit(t, s, `{"n":1}`)
	mustClaim(t, s, "w1")
	if err := s.Complete(done.ID, "w1", json.RawMessage(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	queued := submit(t, s, `{"n":2}`)
	running := submit(t, s, `{"n":3}`)
	mustClaim(t, s, "w1") // claims "queued" (older)
	// Simulate SIGKILL: drop the struct without Close (flock dies with the
	// fd; reusing the released lock is exactly what a restarted daemon does).
	s.wal.Close()

	s2, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()

	if got, p := s2.Lookup(done.ID); p != Found || got.State != StateDone || string(got.Result) != `{"ok":true}` {
		t.Errorf("done job after restart: %+v (presence %d)", got, p)
	}
	// Both non-terminal jobs come back queued: the one that held a claim is
	// orphan-requeued with its attempt count intact, which names the journal
	// a resume reads.
	if got, p := s2.Lookup(queued.ID); p != Found || got.State != StateQueued || got.Attempt != 1 {
		t.Errorf("orphaned job after restart: %+v (presence %d)", got, p)
	}
	if got, p := s2.Lookup(running.ID); p != Found || got.State != StateQueued {
		t.Errorf("never-claimed job after restart: %+v (presence %d)", got, p)
	}
	// Orphans are immediately claimable, but like every requeue they rejoin
	// at the back: the never-claimed job goes first.
	if c := mustClaim(t, s2, "w2"); c.ID != running.ID || c.Attempt != 1 {
		t.Errorf("first claim after restart = %+v, want %s attempt 1", c, running.ID)
	}
	if c := mustClaim(t, s2, "w2"); c.ID != queued.ID || c.Attempt != 2 {
		t.Errorf("second claim after restart = %+v, want %s attempt 2", c, queued.ID)
	}
	// Submission counter also survived: new IDs don't collide.
	fresh := submit(t, s2, `{"n":4}`)
	if fresh.ID != "job-4" {
		t.Errorf("post-restart submit got ID %s, want job-4", fresh.ID)
	}
}

// TestOpenIgnoresLegacyOwnerRecord: a store directory left by the replicated
// daemon — ownership record and a torn restamp beside the log, the owner
// SIGKILLed mid-attempt — validates clean and reopens with every job, the
// dead owner's claim orphan-requeued and its token fenced.
func TestOpenIgnoresLegacyOwnerRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := submit(t, s, `{"n":1}`)
	mustClaim(t, s, "dedcd-4242.c1")
	if err := s.Complete(done.ID, "dedcd-4242.c1", json.RawMessage(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	running := submit(t, s, `{"n":2}`)
	queued := submit(t, s, `{"n":3}`)
	stale := mustClaim(t, s, "dedcd-4242.c2")
	// The replicated daemon restamped owner.json via owner.json.tmp + rename;
	// a kill mid-restamp leaves the temp file torn.
	rec := `{"addr":"127.0.0.1:18201","pid":4242,"started_at":"2026-01-02T03:04:05.123456789Z","heartbeat_at":"2026-01-02T03:09:35.5Z"}`
	if err := os.WriteFile(filepath.Join(dir, "owner.json"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "owner.json.tmp"), []byte(rec[:40]), 0o644); err != nil {
		t.Fatal(err)
	}
	s.wal.Close() // SIGKILL: no Close, the flock dies with the fd

	rep, err := Validate(dir)
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if rep.Jobs[StateDone] != 1 || rep.Jobs[StateRunning] != 1 || rep.Jobs[StateQueued] != 1 || rep.TornTail {
		t.Fatalf("report = %s", rep)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := s2.Counts(); got[StateDone] != 1 || got[StateQueued] != 2 || len(s2.List()) != 3 {
		t.Fatalf("recovered counts = %v over %d jobs, want 1 done + 2 queued", got, len(s2.List()))
	}
	if got, p := s2.Lookup(running.ID); p != Found || got.State != StateQueued || got.Attempt != 1 {
		t.Fatalf("orphaned job = %+v (presence %d), want queued at attempt 1", got, p)
	}
	if got, p := s2.Lookup(queued.ID); p != Found || got.State != StateQueued {
		t.Fatalf("queued job = %+v (presence %d)", got, p)
	}
	if err := s2.Complete(stale.ID, stale.Worker, json.RawMessage(`{"stale":true}`)); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("stale-token complete = %v, want ErrNotRunning", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(dir); err != nil {
		t.Fatalf("validate after reopen: %v", err)
	}
}

// TestOpenLegacyLeaseStore: a store directory written by a build with lease
// TTLs — a snapshot whose jobs carry lease_expiry, claim events with expiry,
// renew and checkpoint_ref events, a lease_expired requeue — validates and
// opens, its running job is requeued as an orphan, and the snapshot the
// reopen writes no longer carries lease fields. The checkpoint_ref event is
// folded as a no-op: it adds no timeline entry. The records are verbatim
// output of that build; TestOpenLegacyStoreResumes in cmd/dedcd runs the
// requeued job from its attempt journal.
func TestOpenLegacyLeaseStore(t *testing.T) {
	dir := t.TempDir()
	snap := `{"v":1,"last_seq":4,"next_id":2,"jobs":[` +
		`{"id":"job-1","spec":{"n":1},"state":"running","attempt":1,"worker":"dedcd-7.c1","lease_expiry":"2023-11-14T22:13:21.002Z","not_before":"0001-01-01T00:00:00Z","created":"2023-11-14T22:13:20.001Z","finished":"0001-01-01T00:00:00Z","queue_seq":1,"timeline":[{"type":"submitted","ts":"2023-11-14T22:13:20.001Z"},{"type":"claimed","ts":"2023-11-14T22:13:20.003Z","attempt":1,"worker":"dedcd-7.c1"}]},` +
		`{"id":"job-2","spec":{"n":2},"state":"running","attempt":1,"worker":"dedcd-7.c2","lease_expiry":"2023-11-14T22:13:21.005Z","not_before":"0001-01-01T00:00:00Z","created":"2023-11-14T22:13:20.004Z","finished":"0001-01-01T00:00:00Z","queue_seq":3,"timeline":[{"type":"submitted","ts":"2023-11-14T22:13:20.004Z"},{"type":"claimed","ts":"2023-11-14T22:13:20.006Z","attempt":1,"worker":"dedcd-7.c2"}]}]}`
	events := []string{
		`{"seq":5,"ts":1700000000009000000,"type":"renew","job":"job-2","worker":"dedcd-7.c2","expiry":1700000001008000000}`,
		`{"seq":6,"ts":1700000000012000000,"type":"checkpoint_ref","job":"job-2","worker":"dedcd-7.c2","expiry":1700000001011000000,"ref":"journals/job-2.a1.jsonl"}`,
		`{"seq":7,"ts":1700000000013000000,"type":"complete","job":"job-1","worker":"dedcd-7.c1","result":{"ok":true}}`,
		`{"seq":8,"ts":1700000002016000000,"type":"requeue","job":"job-2","reason":"lease_expired","not_before":1700000002016003497,"error":"lease expired after attempt 1"}`,
		`{"seq":9,"ts":1700000003018000000,"type":"claim","job":"job-2","worker":"dedcd-7.c3","expiry":1700000004017000000,"attempt":2}`,
		`{"seq":10,"ts":1700000003021000000,"type":"renew","job":"job-2","worker":"dedcd-7.c3","expiry":1700000004020000000}`,
		`{"seq":11,"ts":1700000003022000000,"type":"submit","job":"job-3","spec":{"n":3}}`,
	}
	var log bytes.Buffer
	for _, ev := range events {
		log.Write(frame([]byte(ev)))
	}
	if err := os.WriteFile(filepath.Join(dir, snapName), frame([]byte(snap)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, logName), log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Validate(dir)
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if rep.Jobs[StateDone] != 1 || rep.Jobs[StateRunning] != 1 || rep.Jobs[StateQueued] != 1 ||
		rep.LogEvents != len(events) || rep.LastSeq != 11 || rep.TornTail {
		t.Fatalf("report = %s", rep)
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if got, p := s.Lookup("job-1"); p != Found || got.State != StateDone || string(got.Result) != `{"ok":true}` {
		t.Errorf("job-1 = %+v (presence %d), want done with its result", got, p)
	}
	got, p := s.Lookup("job-2")
	if p != Found || got.State != StateQueued || got.Attempt != 2 {
		t.Fatalf("job-2 = %+v (presence %d), want queued at attempt 2", got, p)
	}
	var reasons []string
	for _, e := range got.Timeline {
		switch e.Type {
		case TLRequeued:
			reasons = append(reasons, e.Reason)
		case TLSubmitted, TLClaimed:
		default:
			t.Errorf("job-2 timeline entry %q, want only submitted, claimed and requeued", e.Type)
		}
	}
	if strings.Join(reasons, ",") != "lease_expired,"+ReasonOrphaned {
		t.Errorf("job-2 requeue reasons = %v, want [lease_expired %s]", reasons, ReasonOrphaned)
	}
	if err := s.Complete("job-2", "dedcd-7.c3", nil); !errors.Is(err, ErrNotRunning) {
		t.Errorf("dead process's late Complete = %v, want ErrNotRunning", err)
	}
	if got, _ := s.Lookup("job-3"); got.State != StateQueued {
		t.Errorf("job-3 = %s, want queued", got.State)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("lease_expiry")) {
		t.Error("snapshot rewritten at open still carries lease_expiry")
	}
	if _, err := Validate(dir); err != nil {
		t.Fatalf("validate after reopen: %v", err)
	}
}

// TestOpenTolerantOfTornTail: a partial final append (the normal SIGKILL
// artefact) is dropped and the clean prefix recovered.
func TestOpenTolerantOfTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := submit(t, s, `{"n":1}`)
	b := submit(t, s, `{"n":2}`)
	s.wal.Close()

	log := filepath.Join(dir, logName)
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(log, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer s2.Close()
	if _, p := s2.Lookup(a.ID); p != Found {
		t.Errorf("job %s lost (presence %d)", a.ID, p)
	}
	// b's submit was the torn record: it never became durable, so after
	// recovery it reads as evicted (its ID is below the next fresh one only
	// if the counter advanced — here it did not, so it's unknown).
	if _, p := s2.Lookup(b.ID); p != Unknown {
		t.Errorf("torn-away job %s presence = %d, want Unknown", b.ID, p)
	}
	// The torn bytes were rewritten away: appends continue cleanly and the ID
	// is reissued.
	again := submit(t, s2, `{"n":2,"retry":true}`)
	if again.ID != b.ID {
		t.Errorf("reissued ID = %s, want %s", again.ID, b.ID)
	}
	if _, err := Validate(dir); err != nil {
		t.Errorf("Validate after torn-tail recovery: %v", err)
	}
}

// TestOpenRejectsInteriorCorruption: a flipped bit mid-log is ErrCorrupt,
// never a panic or a silent partial load.
func TestOpenRejectsInteriorCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		submit(t, s, `{"payload":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}`)
	}
	s.wal.Close()

	log := filepath.Join(dir, logName)
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x40
	if err := os.WriteFile(log, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open with mid-log flip = %v, want ErrCorrupt", err)
	}
	if _, err := Validate(dir); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Validate with mid-log flip = %v, want ErrCorrupt", err)
	}
}

// TestCompactionSurvivesStaleLog exercises the crash window between snapshot
// rename and log truncation: the log still holds records the snapshot already
// covers, and replay must skip them instead of double-applying.
func TestCompactionSurvivesStaleLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	j := submit(t, s, `{"n":1}`)
	mustClaim(t, s, "w1")
	if err := s.Complete(j.ID, "w1", json.RawMessage(`"r"`)); err != nil {
		t.Fatal(err)
	}
	// Save the pre-compaction log, compact, then put the old log back:
	// exactly the on-disk state of a crash after rename, before truncate.
	log := filepath.Join(dir, logName)
	stale, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	s.wal.Close()
	if err := os.WriteFile(log, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with stale log: %v", err)
	}
	defer s2.Close()
	got, p := s2.Lookup(j.ID)
	if p != Found || got.State != StateDone || string(got.Result) != `"r"` {
		t.Errorf("job after stale-log recovery: %+v (presence %d)", got, p)
	}
	if next := submit(t, s2, `{}`); next.ID != "job-2" {
		t.Errorf("next ID = %s, want job-2", next.ID)
	}
}

func TestSnapshotCorruptionIsTyped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	submit(t, s, `{}`)
	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	s.wal.Close()

	snapPath := filepath.Join(dir, snapName)
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func([]byte) []byte{
		"flipped byte": func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[len(out)/2] ^= 0x10
			return out
		},
		// Snapshots are written atomically, so even truncation is corruption.
		"truncated": func(d []byte) []byte { return d[:len(d)/2] },
		"empty":     func([]byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(snapPath, mut(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Open = %v, want ErrCorrupt", err)
			}
			if _, err := Validate(dir); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Validate = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestSeqZeroIsCorrupt: a record claiming seq 0 must be rejected outright —
// seqs start at 1, and letting a zero through would re-arm the first-record
// contiguity check and let a gap after it go unnoticed.
func TestSeqZeroIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_000_000, 0).UnixNano()
	var buf bytes.Buffer
	for _, ev := range []Event{
		{Seq: 0, TS: now, Type: EvSubmit, Job: "job-1", Spec: json.RawMessage(`{}`)},
		{Seq: 1, TS: now, Type: EvSubmit, Job: "job-2", Spec: json.RawMessage(`{}`)},
	} {
		rec, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame(rec))
	}
	if err := os.WriteFile(filepath.Join(dir, logName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open with seq-0 record = %v, want ErrCorrupt", err)
	}
	if _, err := Validate(dir); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Validate with seq-0 record = %v, want ErrCorrupt", err)
	}
}

// TestOversizedEventRejectedAtWrite: an event the recovery reader would
// refuse must be rejected before it is persisted or applied — the log stays
// replayable and the store reopens.
func TestOversizedEventRejectedAtWrite(t *testing.T) {
	defer func(old uint32) { maxRecord = old }(maxRecord)
	maxRecord = 256

	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	big := json.RawMessage(`{"impl":"` + strings.Repeat("x", 512) + `"}`)
	if _, err := s.Submit(big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized Submit = %v, want ErrTooLarge", err)
	}
	// The rejected event never advanced the state: the next submit takes the
	// first ID, and a reopen replays cleanly.
	kept := submit(t, s, `{"n":1}`)
	if kept.ID != "job-1" {
		t.Errorf("submit after rejection got ID %s, want job-1", kept.ID)
	}
	s.wal.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after rejected append: %v", err)
	}
	defer s2.Close()
	if _, p := s2.Lookup(kept.ID); p != Found {
		t.Errorf("job %s lost after reopen (presence %d)", kept.ID, p)
	}
}

// TestSnapshotEvictsToFitSizeBound: a snapshot that would exceed the
// reader's bound sheds its oldest terminal jobs until it fits, so the store
// written by compaction is always reopenable.
func TestSnapshotEvictsToFitSizeBound(t *testing.T) {
	defer func(old uint32) { maxSnapshot = old }(maxSnapshot)
	maxSnapshot = 2048

	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	spec := `{"pad":"` + strings.Repeat("x", 500) + `"}`
	var ids []string
	for i := 0; i < 6; i++ {
		j := submit(t, s, spec)
		mustClaim(t, s, "w1")
		if err := s.Complete(j.ID, "w1", nil); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if err := s.CompactNow(); err != nil {
		t.Fatalf("size-bounded compaction: %v", err)
	}
	fi, err := os.Stat(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > int64(maxSnapshot)+frameHeaderLen {
		t.Errorf("snapshot on disk is %d bytes, over the %d bound", fi.Size(), maxSnapshot)
	}
	s.wal.Close()

	s2, err := Open(dir, Options{CompactEvery: 1 << 20})
	if err != nil {
		t.Fatalf("reopen after size-bounded compaction: %v", err)
	}
	defer s2.Close()
	// The oldest-finished terminal jobs were evicted (410 material), the
	// newest survives.
	if _, p := s2.Lookup(ids[0]); p != Evicted {
		t.Errorf("oldest terminal job presence = %d, want Evicted", p)
	}
	if _, p := s2.Lookup(ids[len(ids)-1]); p != Found {
		t.Errorf("newest terminal job presence = %d, want Found", p)
	}
}

// TestSnapshotOfOnlyLiveJobsFailsLoudly: live jobs cannot be evicted, so a
// state that cannot fit the snapshot bound must fail compaction with the log
// intact — never write a snapshot recovery would reject as corrupt.
func TestSnapshotOfOnlyLiveJobsFailsLoudly(t *testing.T) {
	defer func(old uint32) { maxSnapshot = old }(maxSnapshot)
	maxSnapshot = 1024

	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := `{"pad":"` + strings.Repeat("x", 600) + `"}`
	a := submit(t, s, spec)
	b := submit(t, s, spec)
	if err := s.CompactNow(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("CompactNow over live jobs = %v, want ErrTooLarge", err)
	}
	// The failed compaction lost nothing: both jobs are still served.
	for _, id := range []string{a.ID, b.ID} {
		if _, p := s.Lookup(id); p != Found {
			t.Errorf("job %s presence = %d after failed compaction, want Found", id, p)
		}
	}
}

func TestSeqGapIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_000_000, 0).UnixNano()
	var buf bytes.Buffer
	for _, ev := range []Event{
		{Seq: 1, TS: now, Type: EvSubmit, Job: "job-1", Spec: json.RawMessage(`{}`)},
		{Seq: 3, TS: now, Type: EvSubmit, Job: "job-2", Spec: json.RawMessage(`{}`)}, // gap: 2 missing
	} {
		rec, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame(rec))
	}
	if err := os.WriteFile(filepath.Join(dir, logName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open with seq gap = %v, want ErrCorrupt", err)
	}
}

func TestIllegalTransitionIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_000_000, 0).UnixNano()
	var buf bytes.Buffer
	for _, ev := range []Event{
		{Seq: 1, TS: now, Type: EvSubmit, Job: "job-1", Spec: json.RawMessage(`{}`)},
		// Complete without a claim: the job was never running.
		{Seq: 2, TS: now, Type: EvComplete, Job: "job-1", Worker: "w1"},
	} {
		rec, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame(rec))
	}
	if err := os.WriteFile(filepath.Join(dir, logName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open with illegal transition = %v, want ErrCorrupt", err)
	}
}

func TestSecondOpenIsLockedOut(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open of a locked dir succeeded")
	}
}

// TestOpenRaceTypedLoser: two Opens race one directory, exactly one wins, and
// the loser gets the typed ErrNotOwner without disturbing the winner.
func TestOpenRaceTypedLoser(t *testing.T) {
	dir := t.TempDir()
	winner, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("first open: %v", err)
	}
	defer winner.Close()
	if _, err := winner.Submit(json.RawMessage(`{"n":1}`)); err != nil {
		t.Fatalf("winner submit: %v", err)
	}

	loser, err := Open(dir, Options{})
	if err == nil {
		loser.Close()
		t.Fatal("second open succeeded; the flock admitted two writers")
	}
	if !errors.Is(err, ErrNotOwner) {
		t.Fatalf("loser error = %v, want ErrNotOwner", err)
	}

	// The loser's probe must not have disturbed the winner: its boot state
	// stays intact and it keeps writing.
	if _, err := winner.Submit(json.RawMessage(`{"n":2}`)); err != nil {
		t.Fatalf("winner submit after contested open: %v", err)
	}
	if n := len(winner.List()); n != 2 {
		t.Fatalf("winner retains %d jobs, want 2", n)
	}
}

func TestValidateReport(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	a := submit(t, s, `{}`)
	submit(t, s, `{}`)
	mustClaim(t, s, "w1")
	if err := s.Complete(a.ID, "w1", nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	rep, err := Validate(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Open compacts once on boot, so the snapshot is fresh and the four live
	// events (2 submits, claim, complete) sit in the log.
	if !rep.HaveSnapshot || rep.LogEvents != 4 || rep.LastSeq != 4 || rep.NextID != 2 || rep.TornTail {
		t.Errorf("report = %+v", rep)
	}
	if rep.Jobs[StateDone] != 1 || rep.Jobs[StateQueued] != 1 {
		t.Errorf("job counts = %v", rep.Jobs)
	}
	if rep.String() == "" {
		t.Error("empty String()")
	}
}
