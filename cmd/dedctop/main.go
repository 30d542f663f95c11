// Command dedctop is a terminal dashboard for a running dedcd: it polls
// GET /v1/stats and repaints a daemon summary — job counts, worker occupancy,
// latency quantiles, stream health, and a progress table with the latest
// checkpoint of every running attempt.
//
//	dedctop -addr http://localhost:8080              # live dashboard, 1s refresh
//	dedctop -once                                    # single plain frame (scripts, CI)
//	dedctop -job <id>                                # tail one job's SSE event stream
//
// The -job tail consumes /v1/jobs/{id}/events with automatic
// reconnect-and-resume (Last-Event-ID), so it rides through daemon restarts
// and exits when the job reaches a terminal state.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dedc/internal/stream"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("dedctop", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "dedcd base URL")
	interval := fs.Duration("interval", time.Second, "refresh interval")
	frames := fs.Int("frames", 0, "stop after this many frames (0 = run until interrupted)")
	once := fs.Bool("once", false, "print a single plain frame and exit (implies -frames 1 -plain)")
	plain := fs.Bool("plain", false, "no terminal clearing between frames (append frames instead)")
	job := fs.String("job", "", "tail this job's event stream instead of the dashboard")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *once {
		*frames = 1
		*plain = true
	}
	base := normalizeBase(*addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *job != "" {
		if err := tailJob(ctx, base, *job, out); err != nil && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "dedctop: %v\n", err)
			return 1
		}
		return 0
	}

	hc := &http.Client{Timeout: 10 * time.Second}
	var prev *stream.Stats
	var prevAt time.Time
	for n := 0; *frames == 0 || n < *frames; n++ {
		if n > 0 {
			select {
			case <-ctx.Done():
				return 0
			case <-time.After(*interval):
			}
		}
		cur, err := fetchStats(ctx, hc, base)
		if err != nil {
			if ctx.Err() != nil {
				return 0
			}
			fmt.Fprintf(os.Stderr, "dedctop: %v\n", err)
			return 1
		}
		now := time.Now()
		var elapsed time.Duration
		if prev != nil {
			elapsed = now.Sub(prevAt)
		}
		fmt.Fprint(out, render(prev, cur, elapsed, *plain))
		prev, prevAt = cur, now
	}
	return 0
}

func normalizeBase(addr string) string {
	base := strings.TrimRight(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return base
}

func fetchStats(ctx context.Context, hc *http.Client, base string) (*stream.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	var st stream.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return &st, nil
}

// tailJob follows one job's SSE stream, printing a line per frame, until the
// terminal lifecycle transition. Reconnects (daemon restart, LB blip) resume
// via Last-Event-ID, so lifecycle lines appear exactly once.
func tailJob(ctx context.Context, base, id string, out *os.File) error {
	c := &stream.Client{URL: base + "/v1/jobs/" + id + "/events"}
	return c.Run(ctx, func(e stream.Event) error {
		fmt.Fprintln(out, formatFrame(e))
		if e.Type == stream.TypeLifecycle {
			var lc stream.Lifecycle
			if err := json.Unmarshal(e.Data, &lc); err == nil && lc.Terminal {
				return stream.ErrStop
			}
		}
		return nil
	})
}

// formatFrame renders one SSE frame as a human-readable log line.
func formatFrame(e stream.Event) string {
	switch e.Type {
	case stream.TypeLifecycle:
		var lc stream.Lifecycle
		if err := json.Unmarshal(e.Data, &lc); err != nil {
			break
		}
		line := fmt.Sprintf("%s  #%-3d %-10s state=%s", lc.TS.Format("15:04:05.000"), lc.Index, lc.Type, lc.State)
		if lc.Attempt > 0 {
			line += fmt.Sprintf(" attempt=%d", lc.Attempt)
		}
		if lc.Reason != "" {
			line += " reason=" + lc.Reason
		}
		if lc.Error != "" {
			line += " error=" + lc.Error
		}
		return line
	case stream.TypeProgress:
		var p stream.Progress
		if err := json.Unmarshal(e.Data, &p); err != nil {
			break
		}
		return fmt.Sprintf("%s  ·    progress   attempt=%d step=%d round=%d frontier=%d solutions=%d candidates=%d sat=%d",
			p.TS.Format("15:04:05.000"), p.Attempt, p.Step, p.Round, p.Frontier, p.Solutions, p.Candidates, p.SatConflicts)
	}
	return fmt.Sprintf("%s %s", e.Type, e.Data)
}
