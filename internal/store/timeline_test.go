package store

import (
	"encoding/json"
	"testing"
	"time"
)

// timelineTypes projects a timeline onto its event-type sequence.
func timelineTypes(j Job) []string {
	out := make([]string, len(j.Timeline))
	for i, ev := range j.Timeline {
		out[i] = ev.Type
	}
	return out
}

// TestTimelineAcrossRequeue: a job that fails an attempt and is retried
// carries the full lifecycle in its timeline — submitted, claimed, requeued,
// claimed, completed — with monotone timestamps and attempt numbers that
// match the claim history.
func TestTimelineAcrossRequeue(t *testing.T) {
	clk := newFakeClock()
	s := memStore(t, clk, Options{
		MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond,
	})
	j := submit(t, s, `{}`)
	clk.Advance(time.Second)
	mustClaim(t, s, "w1")
	clk.Advance(time.Second)
	if err := s.Fail(j.ID, "w1", "transient"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second) // clears the millisecond backoff
	mustClaim(t, s, "w2")
	clk.Advance(time.Second)
	if err := s.Complete(j.ID, "w2", json.RawMessage(`true`)); err != nil {
		t.Fatal(err)
	}

	got, _ := s.Lookup(j.ID)
	want := []string{TLSubmitted, TLClaimed, TLRequeued, TLClaimed, TLCompleted}
	types := timelineTypes(got)
	if len(types) != len(want) {
		t.Fatalf("timeline = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("timeline = %v, want %v", types, want)
		}
	}
	for i := 1; i < len(got.Timeline); i++ {
		if got.Timeline[i].TS.Before(got.Timeline[i-1].TS) {
			t.Errorf("timeline[%d] %v precedes timeline[%d] %v",
				i, got.Timeline[i].TS, i-1, got.Timeline[i-1].TS)
		}
	}
	// Each step advanced the fake clock by 1s, so the span is exactly 4s.
	if span := got.Timeline[4].TS.Sub(got.Timeline[0].TS); span != 4*time.Second {
		t.Errorf("submitted->completed span = %v, want 4s", span)
	}
	// Attempt numbers on the claim entries match the claim order, and the
	// terminal entry carries the attempt that finished the job.
	if a1, a2 := got.Timeline[1].Attempt, got.Timeline[3].Attempt; a1 != 1 || a2 != 2 {
		t.Errorf("claim attempts = %d, %d, want 1, 2", a1, a2)
	}
	if got.Timeline[4].Attempt != got.Attempt {
		t.Errorf("terminal attempt = %d, job attempt = %d", got.Timeline[4].Attempt, got.Attempt)
	}
	if w1, w2 := got.Timeline[1].Worker, got.Timeline[3].Worker; w1 != "w1" || w2 != "w2" {
		t.Errorf("claim workers = %q, %q, want w1, w2", w1, w2)
	}
}

// TestTimelineSurvivesRestart: the timeline is part of the folded job state,
// so replaying the log on reopen rebuilds it, and later events extend it.
func TestTimelineSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	opt := Options{MaxAttempts: 5, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond, Now: clk.Now}
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	j := submit(t, s, `{}`)
	mustClaim(t, s, "w1")
	if err := s.Fail(j.ID, "w1", "crash imminent"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	clk.Advance(time.Second)
	mustClaim(t, s2, "w2")
	if err := s2.Complete(j.ID, "w2", nil); err != nil {
		t.Fatal(err)
	}
	got, _ := s2.Lookup(j.ID)
	want := []string{TLSubmitted, TLClaimed, TLRequeued, TLClaimed, TLCompleted}
	types := timelineTypes(got)
	if len(types) != len(want) {
		t.Fatalf("timeline after restart = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("timeline after restart = %v, want %v", types, want)
		}
	}
}

// TestCountsCacheMatchesList: the O(1) Counts cache agrees with a recount of
// List at every lifecycle stage, including across a restart.
func TestCountsCacheMatchesList(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	opt := Options{MaxAttempts: 2, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond, Now: clk.Now}
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, st *Store) {
		t.Helper()
		want := map[State]int{}
		for _, j := range st.List() {
			want[j.State]++
		}
		got := st.Counts()
		if len(got) != len(want) {
			t.Fatalf("%s: Counts() = %v, List recount = %v", stage, got, want)
		}
		for state, n := range want {
			if got[state] != n {
				t.Fatalf("%s: Counts() = %v, List recount = %v", stage, got, want)
			}
		}
	}

	a := submit(t, s, `"a"`)
	submit(t, s, `"b"`)
	c := submit(t, s, `"c"`)
	check("after submits", s)
	mustClaim(t, s, "w1")
	check("after claim", s)
	if err := s.Complete(a.ID, "w1", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(c.ID); err != nil {
		t.Fatal(err)
	}
	check("after terminals", s)
	mustClaim(t, s, "w1")
	if err := s.Fail("job-2", "w1", "boom"); err != nil {
		t.Fatal(err)
	}
	check("after requeue", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check("after restart", s2)
}
