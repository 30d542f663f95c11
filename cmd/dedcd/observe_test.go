package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dedc/internal/store"
	"dedc/internal/telemetry"
)

// TestRetryAfterComputation: the 503 Retry-After estimate scales with queue
// depth over pool width, rounds up to whole seconds, and clamps to [1s, 5m].
func TestRetryAfterComputation(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	st := store.NewMemory(store.Options{})
	defer st.Close()
	s := newServer(log, st, 2)
	s.retryBackoff = 250 * time.Millisecond

	cases := []struct {
		queued int
		want   string
	}{
		{0, "1"},         // 250ms, clamped up to the 1s floor
		{8, "2"},         // 250ms × (1 + 8/2) = 1.25s, ceil to 2
		{100, "13"},      // 250ms × 51 = 12.75s
		{1 << 20, "300"}, // absurd backlog clamps to the 5m ceiling
	}
	for _, c := range cases {
		if got := s.retryAfter(c.queued); got != c.want {
			t.Errorf("retryAfter(%d) = %q, want %q", c.queued, got, c.want)
		}
	}
}

// TestListFiltersAndLimit: GET /v1/jobs supports ?state= and ?limit=, reports
// the pre-truncation match total, and rejects unknown states and bad limits.
// The store is seeded directly and the workers never started, so the
// queued/running split is exact rather than a race with claiming.
func TestListFiltersAndLimit(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	st := store.NewMemory(store.Options{})
	defer st.Close()
	s := newServer(log, st, 1)
	ts := httptest.NewServer(s.handler(telemetry.NewRegistry()))
	defer ts.Close()
	for i := 0; i < 3; i++ {
		if _, err := st.Submit(json.RawMessage(fmt.Sprintf(`"job-%d"`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := st.Claim("w1"); err != nil || !ok {
		t.Fatalf("Claim = ok=%v err=%v", ok, err)
	} // one running, two still queued

	code, m := getJSON(t, ts.URL+"/v1/jobs?state=queued")
	jobs, _ := m["jobs"].([]any)
	if code != http.StatusOK || len(jobs) != 2 || m["total"] != float64(2) {
		t.Errorf("state=queued: %d jobs=%d total=%v", code, len(jobs), m["total"])
	}
	code, m = getJSON(t, ts.URL+"/v1/jobs?state=running")
	jobs, _ = m["jobs"].([]any)
	if code != http.StatusOK || len(jobs) != 1 || m["total"] != float64(1) {
		t.Errorf("state=running: %d jobs=%d total=%v", code, len(jobs), m["total"])
	}
	// A page smaller than the match count still reports the full total.
	code, m = getJSON(t, ts.URL+"/v1/jobs?limit=1")
	jobs, _ = m["jobs"].([]any)
	if code != http.StatusOK || len(jobs) != 1 || m["total"] != float64(3) {
		t.Errorf("limit=1: %d jobs=%d total=%v", code, len(jobs), m["total"])
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs?state=bogus"); code != http.StatusBadRequest {
		t.Errorf("state=bogus = %d, want 400", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs?limit=-1"); code != http.StatusBadRequest {
		t.Errorf("limit=-1 = %d, want 400", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs?limit=zap"); code != http.StatusBadRequest {
		t.Errorf("limit=zap = %d, want 400", code)
	}
}

// TestStatusTimeline: the single-job status view carries the machine-readable
// lifecycle timeline — submitted before claimed before the terminal entry,
// timestamps monotone — while the list view stays lean (no timelines).
func TestStatusTimeline(t *testing.T) {
	_, ts := testServer(t, 1, 0, func(context.Context, jobRequest, runEnv) (*jobResult, error) {
		return &jobResult{Status: "Complete", Solved: true}, nil
	})
	_, m := postJSON(t, ts.URL+"/v1/jobs", jobRequest{Impl: "x"})
	id := m["id"].(string)
	waitState(t, ts.URL, id, "done")

	_, st := getJSON(t, ts.URL+"/v1/jobs/"+id)
	tl, _ := st["timeline"].([]any)
	if len(tl) < 3 {
		t.Fatalf("timeline = %v, want at least submitted/claimed/completed", st["timeline"])
	}
	var prev time.Time
	types := make([]string, 0, len(tl))
	for i, raw := range tl {
		ev := raw.(map[string]any)
		types = append(types, ev["type"].(string))
		ts, err := time.Parse(time.RFC3339Nano, ev["ts"].(string))
		if err != nil {
			t.Fatalf("timeline[%d] ts: %v", i, err)
		}
		if ts.Before(prev) {
			t.Errorf("timeline[%d] %v precedes its predecessor %v", i, ts, prev)
		}
		prev = ts
	}
	if types[0] != store.TLSubmitted || types[1] != store.TLClaimed || types[len(types)-1] != store.TLCompleted {
		t.Errorf("timeline types = %v", types)
	}

	_, lst := getJSON(t, ts.URL+"/v1/jobs")
	jobs, _ := lst["jobs"].([]any)
	if len(jobs) != 1 {
		t.Fatalf("list = %v", lst)
	}
	if _, has := jobs[0].(map[string]any)["timeline"]; has {
		t.Error("list view includes timelines; only the single-job view should")
	}
}

// TestMetricsScrapeUnderLoad scrapes /metrics (and /healthz) continuously
// while submitters and the workers churn jobs through the store — the lifecycle
// counters, gauges and histograms must be registered and the scrape must stay
// well-formed and race-clean (run with -race) throughout.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	s, _ := testServer(t, 2, 0, func(context.Context, jobRequest, runEnv) (*jobResult, error) {
		return &jobResult{Status: "Complete", Solved: true}, nil
	})
	// The lifecycle metrics live on the process-wide default registry; serve
	// that one, as cmd/dedcd does.
	ts := httptest.NewServer(s.handler(telemetry.Default))
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				postJSON(t, ts.URL+"/v1/jobs", jobRequest{Impl: fmt.Sprintf("g%d-%d", g, i)})
			}
		}(g)
	}
	var body string
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics status %d", resp.StatusCode)
		}
		body = string(b)
		if code, _ := getJSON(t, ts.URL+"/healthz"); code != http.StatusOK {
			t.Fatalf("healthz status %d", code)
		}
	}
	close(stop)
	wg.Wait()

	for _, name := range []string{
		"store.jobs_queued", "store.jobs_running", "store.jobs_terminal",
		"store.queue_wait_ns", "store.attempt_ns", "store.e2e_ns",
		"pool.submitted", "pool.completed", "dedcd.submissions",
	} {
		pn := telemetry.PromName(name)
		if !strings.Contains(body, pn) {
			t.Errorf("metric %q (%s) missing from /metrics", name, pn)
		}
	}
}
