package store

import (
	"encoding/json"
	"testing"
)

// wakes runs op and fails the test unless it closes a Changed channel taken
// before it, and only then.
func wakes(t *testing.T, st *Store, what string, op func() error) {
	t.Helper()
	ch, ok := st.Changed()
	if !ok {
		t.Fatalf("%s: Changed reports a closed store", what)
	}
	select {
	case <-ch:
		t.Fatalf("%s: channel closed before any change", what)
	default:
	}
	if err := op(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	select {
	case <-ch:
	default:
		t.Fatalf("%s did not wake a Changed waiter", what)
	}
}

// runJob submits, claims and completes one job, checking that each live
// transition wakes a Changed waiter, and returns the job's ID.
func runJob(t *testing.T, st *Store) string {
	t.Helper()
	var id string
	wakes(t, st, "submit", func() error {
		j, err := st.Submit(json.RawMessage(`{}`))
		id = j.ID
		return err
	})
	wakes(t, st, "claim", func() error {
		_, _, err := st.Claim("w")
		return err
	})
	wakes(t, st, "complete", func() error { return st.Complete(id, "w", json.RawMessage(`{}`)) })
	return id
}

// TestWatchDeliversTransitions: every live timeline transition (submit,
// claim, complete) closes a Changed channel taken before it, and the
// persisted timeline a woken consumer reads holds every transition in order.
func TestWatchDeliversTransitions(t *testing.T) {
	st := NewMemory(Options{})
	defer st.Close()
	id := runJob(t, st)
	j, p := st.Lookup(id)
	if p != Found {
		t.Fatalf("Lookup(%s) presence %d", id, p)
	}
	want := []string{TLSubmitted, TLClaimed, TLCompleted}
	if len(j.Timeline) != len(want) {
		t.Fatalf("timeline = %+v, want types %v", j.Timeline, want)
	}
	for i, e := range j.Timeline {
		if e.Type != want[i] {
			t.Errorf("timeline[%d] = %s, want %s", i, e.Type, want[i])
		}
	}
}

// TestWatchReportsEviction: a CompactNow eviction wakes a Changed waiter and
// Evictions counts the evicted jobs.
func TestWatchReportsEviction(t *testing.T) {
	st, err := Open(t.TempDir(), Options{RetainTerminal: 1, CompactEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, runJob(t, st))
	}
	if n := st.Evictions(); n != 0 {
		t.Fatalf("Evictions = %d before any compaction", n)
	}
	// RetainTerminal 1 keeps only the newest of the three done jobs.
	wakes(t, st, "eviction", st.CompactNow)
	if n := st.Evictions(); n != 2 {
		t.Fatalf("Evictions = %d after compacting 3 terminal jobs down to 1, want 2", n)
	}
	for i, id := range ids {
		if _, p := st.Lookup(id); (p == Evicted) != (i < 2) {
			t.Errorf("%s has presence %d after compaction", id, p)
		}
	}
}

// TestWatchStoreCloseEnds: Close wakes a Changed waiter, and afterwards
// Changed reports ok == false with a nil channel.
func TestWatchStoreCloseEnds(t *testing.T) {
	st := NewMemory(Options{})
	runJob(t, st)
	wakes(t, st, "close", st.Close)
	if ch, ok := st.Changed(); ok || ch != nil {
		t.Fatalf("Changed after Close = (%v, %v), want (nil, false)", ch, ok)
	}
}

// TestTimelineState pins the timeline-type → state mapping used to
// reconstruct lifecycle states from a replayed timeline prefix.
func TestTimelineState(t *testing.T) {
	for tl, want := range map[string]State{
		TLSubmitted: StateQueued,
		TLRequeued:  StateQueued,
		TLClaimed:   StateRunning,
		TLCompleted: StateDone,
		TLFailed:    StateFailed,
		TLCancelled: StateCancelled,
		"bogus":     "",
	} {
		if got := TimelineState(tl); got != want {
			t.Errorf("TimelineState(%q) = %q, want %q", tl, got, want)
		}
	}
}
