package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dedc/internal/store"
)

// TestStoreMode: `journalcheck -store <dir>` validates a healthy store
// directory (also one holding the replicated daemon's ownership record),
// tolerates a crash-torn tail, and exits non-zero on interior corruption or
// a missing directory.
func TestStoreMode(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(json.RawMessage(`{"impl":"x"}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(json.RawMessage(`{"impl":"y"}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The ownership record the replicated daemon kept beside the log is not
	// store state; a directory that still holds it checks clean.
	for _, name := range []string{"owner.json", "owner.json.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(`{"addr":"127.0.0.1:18201","pid":4242}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if code := run([]string{"-store", dir}); code != 0 {
		t.Errorf("healthy store: exit %d, want 0", code)
	}

	// A torn tail (half a record) is a crash artefact, not corruption.
	logPath := filepath.Join(dir, "events.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 4 {
		t.Fatalf("log too short to truncate: %d bytes", len(data))
	}
	if err := os.WriteFile(logPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-q", "-store", dir}); code != 0 {
		t.Errorf("torn tail: exit %d, want 0", code)
	}

	// Interior damage must fail the check: a flipped payload byte in the
	// first record breaks its checksum with valid data still following.
	mangled := append([]byte(nil), data...)
	mangled[12] ^= 0xff
	if err := os.WriteFile(logPath, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-store", dir}); code == 0 {
		t.Error("interior corruption: exit 0, want non-zero")
	}

	if code := run([]string{"-store", filepath.Join(dir, "nope")}); code == 0 {
		t.Error("missing directory: exit 0, want non-zero")
	}
}
