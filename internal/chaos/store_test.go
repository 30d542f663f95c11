package chaos_test

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"dedc/internal/chaos"
	"dedc/internal/store"
)

// TestStoreCorruptionTrials damages a real store directory — event log and
// snapshot — with the binary corruption operators and checks the recovery
// contract: Open/Validate either replay cleanly to the last valid record or
// fail with the typed store.ErrCorrupt. Never a panic, and never a job that
// was not in the pristine history (silent fabrication).
//
// CHAOS_STORE_CORRUPT_TRIALS scales the trial count (default 150).
func TestStoreCorruptionTrials(t *testing.T) {
	trials := 150
	if s := os.Getenv("CHAOS_STORE_CORRUPT_TRIALS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad CHAOS_STORE_CORRUPT_TRIALS=%q", s)
		}
		trials = n
	}

	pristine := t.TempDir()
	buildPristineStore(t, pristine)
	ref, err := store.Validate(pristine)
	if err != nil {
		t.Fatalf("pristine store does not validate: %v", err)
	}
	if ref.LogEvents == 0 || ref.SnapshotJobs == 0 {
		t.Fatalf("fixture too thin for corruption trials: %+v", ref)
	}
	pristineIDs := make(map[string]bool)
	refStore, err := store.Open(pristine, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range refStore.List() {
		pristineIDs[j.ID] = true
	}
	refStore.Close()
	logBytes, err := os.ReadFile(filepath.Join(pristine, "events.log"))
	if err != nil {
		t.Fatal(err)
	}
	snapBytes, err := os.ReadFile(filepath.Join(pristine, "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pristine: %d snapshot jobs, %d log events, %d log bytes",
		ref.SnapshotJobs, ref.LogEvents, len(logBytes))

	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		log, snap := logBytes, snapBytes
		var ops []string
		// Always damage the log; one trial in four damages the snapshot too.
		log, ops = chaos.CorruptBinary(log, rng)
		if rng.Intn(4) == 0 {
			var sops []string
			snap, sops = chaos.CorruptBinary(snap, rng)
			for _, op := range sops {
				ops = append(ops, "snapshot:"+op)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "events.log"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "snapshot"), snap, 0o644); err != nil {
			t.Fatal(err)
		}

		terr := chaos.Trial(func() {
			checkRecovery(t, dir, ref.LastSeq, pristineIDs, ops)
		})
		if terr != nil {
			t.Fatalf("trial %d (%v): recovery panicked: %v", trial, ops, terr)
		}
	}
}

// checkRecovery runs the offline validator and a live Open against a damaged
// directory and asserts the recovery contract for both.
func checkRecovery(t *testing.T, dir string, pristineSeq uint64, pristineIDs map[string]bool, ops []string) {
	rep, verr := store.Validate(dir)
	if verr != nil {
		if !errors.Is(verr, store.ErrCorrupt) {
			t.Errorf("%v: Validate failed without ErrCorrupt: %v", ops, verr)
		}
	} else if rep.LastSeq > pristineSeq {
		// Recovering "past" the real history would mean corruption
		// fabricated a valid frame — CRC framing must make that impossible.
		t.Errorf("%v: recovered seq %d beyond pristine %d", ops, rep.LastSeq, pristineSeq)
	}

	s, oerr := store.Open(dir, store.Options{NoSync: true})
	if oerr != nil {
		if !errors.Is(oerr, store.ErrCorrupt) {
			t.Errorf("%v: Open failed without ErrCorrupt: %v", ops, oerr)
		}
		if verr == nil {
			t.Errorf("%v: Validate accepted a directory Open rejects: %v", ops, oerr)
		}
		return
	}
	defer s.Close()
	if verr != nil {
		t.Errorf("%v: Open accepted a directory Validate rejects: %v", ops, verr)
	}
	for _, j := range s.List() {
		if !pristineIDs[j.ID] {
			t.Errorf("%v: job %s materialized out of corruption", ops, j.ID)
		}
	}
	// The recovered prefix must itself be a well-formed store: a clean
	// reopen proves the boot compaction rewrote the damage away.
	s.Close()
	if _, err := store.Validate(dir); err != nil {
		t.Errorf("%v: recovered store does not re-validate: %v", ops, err)
	}
}

// buildPristineStore drives enough lifecycle through a file-backed store to
// populate both the snapshot (via a close/reopen cycle) and a live log tail:
// completed, failed, cancelled, queued, and mid-flight jobs.
func buildPristineStore(t *testing.T, dir string) {
	t.Helper()
	opt := store.Options{
		NoSync:      true,
		MaxAttempts: 5,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	}
	const worker = "chaos-worker"
	spec := json.RawMessage(`{"impl":"x","device":"y"}`)

	s, err := store.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		j, ok, err := s.Claim(worker)
		if err != nil || !ok {
			t.Fatalf("claim %d: ok=%v err=%v", i, ok, err)
		}
		switch i {
		case 0:
			if err := s.Complete(j.ID, worker, json.RawMessage(`{"tuples":[]}`)); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := s.Fail(j.ID, worker, "transient"); err != nil {
				t.Fatal(err)
			}
		}
		// i == 2 is left running: it becomes an orphan requeue on the next
		// Open.
	}
	if err := s.Cancel("job-6"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: boot compaction folds the history above into the snapshot and
	// requeues the orphan. Fresh activity then forms the log tail.
	s, err = store.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	j, ok, err := s.Claim(worker)
	if err != nil || !ok {
		t.Fatalf("tail claim: ok=%v err=%v", ok, err)
	}
	if err := s.Complete(j.ID, worker, json.RawMessage(`{"tuples":[["a"]]}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
