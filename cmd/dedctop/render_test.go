package main

import (
	"strings"
	"testing"
	"time"

	"dedc/internal/stream"
)

func sampleStats() *stream.Stats {
	return &stream.Stats{
		TS:   time.Date(2026, 8, 8, 12, 30, 45, 0, time.UTC),
		Jobs: map[string]int{"queued": 2, "running": 1, "done": 7},
		Pool: stream.PoolStats{Workers: 4, Idle: 3, Completed: 7, Failed: 1},
		Counters: map[string]int64{
			"submissions": 10,
			"requeues":    2,
		},
		Phases: map[string]stream.Quantiles{
			"queue_wait": {Count: 10, Mean: 1.5e6, P50: 1 << 20, P90: 1 << 21, P99: 1 << 22, Max: 1 << 22},
			"attempt":    {Count: 8, Mean: 2.5e8, P50: 1 << 27, P90: 1 << 28, P99: 1 << 29, Max: 1 << 29},
		},
		Stream: stream.StreamStats{Subscribers: 3, Dropped: 12},
		Running: []stream.Progress{{
			Job: "job-abcdef0123456789", Attempt: 2, Step: 1, Round: 9,
			Frontier: 431, Solutions: 1, Candidates: 120000, Simulations: 4800, SatConflicts: 77,
		}},
	}
}

func TestRenderFrame(t *testing.T) {
	cur := sampleStats()
	got := render(nil, cur, 0, true)
	for _, want := range []string{
		"dedctop — 12:30:45",
		"2 queued · 1 running · 7 done",
		"4 workers · 3 idle · completed 7 · failed 1 · panics 0",
		"3 subscribers · 12 frames dropped",
		"requeues 2 · submissions 10",
		"queue_wait",
		"attempt",
		"job-abcdef012…", // truncated to the column width
		"431",            // frontier
		"77",             // sat conflicts delta
	} {
		if !strings.Contains(got, want) {
			t.Errorf("frame missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "\x1b[") {
		t.Error("plain frame contains ANSI escapes")
	}
	if strings.Contains(got, "rate") {
		t.Error("first frame (prev=nil) must not derive a rate")
	}
}

func TestRenderRateAndClear(t *testing.T) {
	prev := sampleStats()
	cur := sampleStats()
	cur.Pool.Completed = prev.Pool.Completed + 6
	got := render(prev, cur, 2*time.Second, false)
	if !strings.HasPrefix(got, "\x1b[H\x1b[2J") {
		t.Error("interactive frame must start with the ANSI home+clear sequence")
	}
	if !strings.Contains(got, "3.00 jobs/s") {
		t.Errorf("frame missing derived completion rate:\n%s", got)
	}
}

func TestRenderIdle(t *testing.T) {
	got := render(nil, &stream.Stats{TS: time.Now()}, 0, true)
	if !strings.Contains(got, "no running attempts") {
		t.Errorf("idle frame: %s", got)
	}
	if !strings.Contains(got, "jobs      none") {
		t.Errorf("idle frame should report no jobs: %s", got)
	}
}

func TestFmtNs(t *testing.T) {
	cases := map[int64]string{
		0:             "0",
		500:           "500ns",
		1500:          "1.5µs",
		2_500_000:     "2.5ms",
		3_210_000_000: "3.21s",
	}
	for ns, want := range cases {
		if got := fmtNs(ns); got != want {
			t.Errorf("fmtNs(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestFormatFrame(t *testing.T) {
	lc := stream.Event{Type: stream.TypeLifecycle, ID: "3",
		Data: []byte(`{"job":"j1","index":3,"type":"requeued","ts":"2026-08-08T12:00:00Z","attempt":1,"reason":"lease expired","state":"queued"}`)}
	line := formatFrame(lc)
	for _, want := range []string{"#3", "requeued", "state=queued", "attempt=1", "reason=lease expired"} {
		if !strings.Contains(line, want) {
			t.Errorf("lifecycle line missing %q: %s", want, line)
		}
	}
	pr := stream.Event{Type: stream.TypeProgress,
		Data: []byte(`{"job":"j1","attempt":2,"step":1,"round":4,"frontier":17,"solutions":0,"ts":"2026-08-08T12:00:01Z"}`)}
	line = formatFrame(pr)
	for _, want := range []string{"progress", "round=4", "frontier=17", "attempt=2"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line missing %q: %s", want, line)
		}
	}
	// Unknown/solution frames fall through to raw data.
	sol := stream.Event{Type: stream.TypeSolution, Data: []byte(`{"event":"solution"}`)}
	if line = formatFrame(sol); !strings.Contains(line, "solution") {
		t.Errorf("solution line: %s", line)
	}
}
