package store

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// drainWatch collects updates until the ring is momentarily empty.
func drainWatch(t *testing.T, s interface {
	Next(ctx context.Context) (Update, bool)
}) []Update {
	t.Helper()
	var out []Update
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		u, ok := s.Next(ctx)
		cancel()
		if !ok {
			return out
		}
		out = append(out, u)
	}
}

// TestWatchDeliversTransitions: a WatchAll subscriber sees every live
// timeline transition, in order, with contiguous indexes matching the
// persisted timeline and post-transition job state on each update.
func TestWatchDeliversTransitions(t *testing.T) {
	st := NewMemory(Options{})
	defer st.Close()
	sub := st.WatchAll(0)
	defer sub.Cancel()

	j, err := st.Submit(json.RawMessage(`{"n":1}`))
	if err != nil {
		t.Fatal(err)
	}
	claimed, ok, err := st.Claim("w1")
	if err != nil || !ok || claimed.ID != j.ID {
		t.Fatalf("Claim = %+v %v %v", claimed, ok, err)
	}
	if err := st.Complete(j.ID, "w1", json.RawMessage(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}

	ups := drainWatch(t, sub)
	wantTypes := []string{TLSubmitted, TLClaimed, TLCompleted}
	wantStates := []State{StateQueued, StateRunning, StateDone}
	if len(ups) != len(wantTypes) {
		t.Fatalf("got %d updates %+v, want %d", len(ups), ups, len(wantTypes))
	}
	for i, u := range ups {
		if u.JobID != j.ID || u.Index != i || u.Entry.Type != wantTypes[i] || u.State != wantStates[i] {
			t.Errorf("update %d = %+v, want index %d type %s state %s", i, u, i, wantTypes[i], wantStates[i])
		}
		if u.Terminal() != (i == len(ups)-1) {
			t.Errorf("update %d Terminal = %v", i, u.Terminal())
		}
	}
	if !ups[len(ups)-1].HasResult {
		t.Error("terminal update does not report a result")
	}
	// Index continuity against the persisted timeline.
	final, _ := st.Lookup(j.ID)
	if len(final.Timeline) != len(ups) {
		t.Errorf("persisted timeline has %d entries, stream delivered %d", len(final.Timeline), len(ups))
	}
}

// TestWatchPerJobFilter: Watch(id) sees only that job's transitions while a
// second job churns beside it.
func TestWatchPerJobFilter(t *testing.T) {
	st := NewMemory(Options{})
	defer st.Close()
	a, _ := st.Submit(json.RawMessage(`{"which":"a"}`))
	sub := st.Watch(a.ID, 0)
	defer sub.Cancel()

	b, _ := st.Submit(json.RawMessage(`{"which":"b"}`))
	// Claim order is FIFO: a first, then b.
	if _, _, err := st.Claim("w1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Claim("w2"); err != nil {
		t.Fatal(err)
	}
	if err := st.Complete(b.ID, "w2", nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Complete(a.ID, "w1", nil); err != nil {
		t.Fatal(err)
	}

	for _, u := range drainWatch(t, sub) {
		if u.JobID != a.ID {
			t.Errorf("filtered watch leaked update for %s: %+v", u.JobID, u)
		}
	}
}

// TestWatchSilentDuringReplay: reopening a store replays the log without
// publishing, and the first live transition after the restart carries the
// index right after the replayed prefix — the property SSE resume depends on.
func TestWatchSilentDuringReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := st.Submit(json.RawMessage(`{}`))
	if _, _, err := st.Claim("w1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sub := st2.WatchAll(0)
	defer sub.Cancel()
	// Replay plus the orphan requeue both happened before the subscription
	// existed; the restored job is queued again with its timeline intact.
	restored, p := st2.Lookup(j.ID)
	if p != Found || restored.State != StateQueued {
		t.Fatalf("restored job = %+v (presence %d)", restored, p)
	}
	prefix := len(restored.Timeline)

	if _, _, err := st2.Claim("w2"); err != nil {
		t.Fatal(err)
	}
	ups := drainWatch(t, sub)
	if len(ups) != 1 {
		t.Fatalf("got %d updates %+v, want exactly the live claim", len(ups), ups)
	}
	if ups[0].Entry.Type != TLClaimed || ups[0].Index != prefix {
		t.Errorf("live update = %+v, want claimed at index %d", ups[0], prefix)
	}
}

// TestWatchSlowSubscriberDrops: a stalled subscriber loses oldest-first and
// the store keeps mutating — the publisher must never block.
func TestWatchSlowSubscriberDrops(t *testing.T) {
	st := NewMemory(Options{})
	defer st.Close()
	j, _ := st.Submit(json.RawMessage(`{}`))
	if _, _, err := st.Claim("w1"); err != nil {
		t.Fatal(err)
	}
	sub := st.Watch(j.ID, 4)
	defer sub.Cancel()
	for i := 0; i < 6; i++ {
		if err := st.Release(j.ID, "w1"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Claim("w1"); err != nil {
			t.Fatal(err)
		}
	}
	if got := sub.Dropped(); got != 8 {
		t.Errorf("Dropped = %d, want 8", got)
	}
	ups := drainWatch(t, sub)
	if len(ups) != 4 {
		t.Fatalf("ring delivered %d updates, want 4", len(ups))
	}
	// The survivors are the newest window: the 6 release/claim pairs occupy
	// timeline indexes 2..13 (submit=0, claim=1), so the 4-slot ring keeps
	// 10..13.
	for i, u := range ups {
		if want := 10 + i; u.Index != want {
			t.Errorf("survivor %d has index %d, want %d", i, u.Index, want)
		}
	}
}

// TestWatchReportsEviction: compaction's retention bound sends one Evicted
// update per dropped terminal job, carrying its final state and attempt
// count and no timeline entry; the retained job gets none.
func TestWatchReportsEviction(t *testing.T) {
	st, err := Open(t.TempDir(), Options{RetainTerminal: 1, CompactEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := st.Submit(json.RawMessage(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Claim("w"); err != nil {
			t.Fatal(err)
		}
		if err := st.Complete(j.ID, "w", json.RawMessage(`{}`)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	sub := st.WatchAll(0)
	defer sub.Cancel()
	if err := st.CompactNow(); err != nil {
		t.Fatal(err)
	}
	ups := drainWatch(t, sub)
	if len(ups) != 2 {
		t.Fatalf("got %d updates %+v, want one per evicted job", len(ups), ups)
	}
	for i, u := range ups {
		if !u.Evicted || u.JobID != ids[i] || u.Index != -1 || u.Entry.Type != "" ||
			u.State != StateDone || u.Attempt != 1 {
			t.Errorf("update %d = %+v, want the eviction of %s (done, attempt 1)", i, u, ids[i])
		}
	}
}

// TestWatchStoreCloseEnds: Close ends subscriptions after buffered updates
// drain, and a subscription to a closed store ends immediately.
func TestWatchStoreCloseEnds(t *testing.T) {
	st := NewMemory(Options{})
	sub := st.WatchAll(0)
	if _, err := st.Submit(json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if u, ok := sub.Next(ctx); !ok || u.Entry.Type != TLSubmitted {
		t.Fatalf("buffered update lost on close: %+v %v", u, ok)
	}
	if _, ok := sub.Next(ctx); ok {
		t.Fatal("subscription survived store close")
	}
	if _, ok := st.WatchAll(0).Next(ctx); ok {
		t.Fatal("subscription to a closed store delivered")
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
