package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dedc/internal/stream"
)

// render formats one dashboard frame from a /v1/stats snapshot. It is a pure
// function of (prev, cur, elapsed): prev enables rate derivation (jobs/s from
// the workers' completed counter delta) and may be nil on the first frame. With
// plain=false the frame is prefixed with an ANSI home+clear so successive
// frames repaint in place.
func render(prev, cur *stream.Stats, elapsed time.Duration, plain bool) string {
	var b strings.Builder
	if !plain {
		b.WriteString("\x1b[H\x1b[2J")
	}
	fmt.Fprintf(&b, "dedctop — %s\n\n", cur.TS.Format("15:04:05"))

	// Jobs by state, stable order, zero states omitted by the daemon.
	fmt.Fprintf(&b, "jobs      %s\n", formatJobs(cur.Jobs))
	fmt.Fprintf(&b, "pool      %d workers · %d idle · completed %d · failed %d · panics %d\n",
		cur.Pool.Workers, cur.Pool.Idle, cur.Pool.Completed, cur.Pool.Failed,
		cur.Pool.Panics)
	if prev != nil && elapsed > 0 {
		done := cur.Pool.Completed - prev.Pool.Completed
		fmt.Fprintf(&b, "rate      %.2f jobs/s over the last %s\n",
			float64(done)/elapsed.Seconds(), elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "stream    %d subscribers · %d frames dropped to slow consumers\n",
		cur.Stream.Subscribers, cur.Stream.Dropped)
	fmt.Fprintf(&b, "cache     %d entries · %s · %.0f%% hits (%d hit, %d miss, %d evicted)\n",
		cur.Cache.Entries, formatBytes(cur.Cache.Bytes), cur.Cache.HitRate*100,
		cur.Cache.Hits, cur.Cache.Misses, cur.Cache.Evictions)

	if len(cur.Counters) > 0 {
		names := make([]string, 0, len(cur.Counters))
		for n := range cur.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, n := range names {
			parts = append(parts, fmt.Sprintf("%s %d", n, cur.Counters[n]))
		}
		fmt.Fprintf(&b, "counters  %s\n", strings.Join(parts, " · "))
	}

	if len(cur.Phases) > 0 {
		b.WriteString("\nphase        count       mean        p50        p90        p99        max\n")
		names := make([]string, 0, len(cur.Phases))
		for n := range cur.Phases {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			q := cur.Phases[n]
			fmt.Fprintf(&b, "%-10s %7d %10s %10s %10s %10s %10s\n", n, q.Count,
				fmtNs(int64(q.Mean)), fmtNs(q.P50), fmtNs(q.P90), fmtNs(q.P99), fmtNs(q.Max))
		}
	}

	b.WriteString("\n")
	if len(cur.Running) == 0 {
		b.WriteString("no running attempts\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-14s %3s %4s %6s %9s %5s %11s %12s %9s\n",
		"JOB", "ATT", "STEP", "ROUND", "FRONTIER", "SOLS", "CANDIDATES", "SIMULATIONS", "SAT.CONF")
	for _, p := range cur.Running {
		fmt.Fprintf(&b, "%-14s %3d %4d %6d %9d %5d %11d %12d %9d\n",
			trunc(p.Job, 14), p.Attempt, p.Step, p.Round, p.Frontier, p.Solutions,
			p.Candidates, p.Simulations, p.SatConflicts)
	}
	return b.String()
}

// formatBytes renders a byte count with a binary-unit suffix (KiB/MiB/GiB).
func formatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit && exp < 2; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMG"[exp])
}

// formatJobs renders the per-state job counts in lifecycle order (queued →
// running → terminal states), with any unknown states appended alphabetically.
func formatJobs(jobs map[string]int) string {
	if len(jobs) == 0 {
		return "none"
	}
	order := []string{"queued", "running", "done", "failed", "cancelled"}
	known := map[string]bool{}
	var parts []string
	for _, s := range order {
		known[s] = true
		if n, ok := jobs[s]; ok {
			parts = append(parts, fmt.Sprintf("%d %s", n, s))
		}
	}
	var rest []string
	for s := range jobs {
		if !known[s] {
			rest = append(rest, s)
		}
	}
	sort.Strings(rest)
	for _, s := range rest {
		parts = append(parts, fmt.Sprintf("%d %s", jobs[s], s))
	}
	return strings.Join(parts, " · ")
}

// fmtNs renders a nanosecond latency with a unit chosen for 3-ish significant
// digits, matching how the histograms bucket (powers of two — precision past
// that is noise).
func fmtNs(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d <= 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", ns)
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
