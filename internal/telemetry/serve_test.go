package telemetry

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// parseProm checks text exposition well-formedness line by line and returns
// the sample names seen (without label/suffix decoration).
func parseProm(t *testing.T, body string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	lastHelp := ""
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("HELP line without text: %q", line)
			}
			lastHelp = f[2]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			// Exposition correctness: every TYPE is announced by a HELP line
			// for the same metric immediately before it.
			if lastHelp != f[2] {
				t.Fatalf("TYPE line for %q not preceded by its HELP line (last HELP: %q)", f[2], lastHelp)
			}
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			continue
		}
		// Sample: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		name = strings.TrimSuffix(name, "_bucket")
		name = strings.TrimSuffix(name, "_sum")
		name = strings.TrimSuffix(name, "_count")
		names[name] = true
	}
	return names
}

func TestServeMetricsExposition(t *testing.T) {
	reg := NewRegistry()
	populate(reg)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	seen := parseProm(t, body)
	// Every registered metric must be present under its sanitized name.
	for name := range reg.Snapshot() {
		if !seen[PromName(name)] {
			t.Errorf("metric %q (%q) missing from /metrics:\n%s", name, PromName(name), body)
		}
	}
	if !strings.Contains(body, `span_node_dur_ns_bucket{le="+Inf"} 3`) {
		t.Errorf("histogram +Inf bucket missing or wrong:\n%s", body)
	}
	if !strings.Contains(body, "sim_trials 42") {
		t.Errorf("counter sample missing:\n%s", body)
	}
	if !strings.Contains(body, "search_depth -3") {
		t.Errorf("negative gauge sample missing:\n%s", body)
	}

	// /metrics is the one metrics text surface; there is no expvar route.
	if code, _ := get(t, "http://"+srv.Addr()+"/debug/vars"); code != http.StatusNotFound {
		t.Errorf("/debug/vars status %d, want 404", code)
	}
	if code, _ := get(t, "http://"+srv.Addr()+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
}

// TestServeWhileMutating scrapes /metrics while goroutines pound every
// metric type — the -race gate for serving live metrics off a running
// engine.
func TestServeWhileMutating(t *testing.T) {
	reg := NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := reg.Counter("mut.trials")
			ga := reg.Gauge("mut.depth")
			h := reg.Histogram("mut.lat")
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				ga.Set(i)
				h.Observe(i % 4096)
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		code, body := get(t, "http://"+srv.Addr()+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("scrape %d: status %d", i, code)
		}
		parseProm(t, body)
	}
	close(stop)
	wg.Wait()
}

// TestRuntimeDebugServerShutdown drives the full CLI runtime path: journal +
// debug server active together, then Close. The journal must still flush
// completely and the server must stop accepting connections — the graceful
// SIGINT/-timeout exit path of the commands.
func TestRuntimeDebugServerShutdown(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "run.jsonl")
	c := CLI{Journal: jpath, DebugAddr: "127.0.0.1:0"}
	rt, err := c.Build(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Debug == nil || rt.Tracer == nil {
		t.Fatal("debug server or tracer not built")
	}
	addr := rt.Debug.Addr()

	ctx, span := rt.Tracer.StartSpan(rt.Context(context.Background()), "run")
	_, child := rt.Tracer.StartSpan(ctx, "step[0]")
	child.End()
	span.End()

	if code, _ := get(t, "http://"+addr+"/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics during run: status %d", code)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Server down: a fresh connection must fail.
	if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Error("debug server still accepting connections after Close")
	}

	// Journal flushed and well-formed, spans balanced.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var events, starts, ends int
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		ev, err := ParseEvent([]byte(line))
		if err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		events++
		switch ev.Event {
		case "span_start":
			starts++
		case "span_end":
			ends++
		}
	}
	if events != 4 || starts != 2 || ends != 2 {
		t.Errorf("journal has %d events (%d starts, %d ends), want 4 (2, 2)", events, starts, ends)
	}
}

// TestServeBadAddr ensures a bind failure surfaces as a Build error rather
// than a background panic.
func TestServeBadAddr(t *testing.T) {
	c := CLI{DebugAddr: "127.0.0.1:-1"}
	if _, err := c.Build(io.Discard); err == nil {
		t.Fatal("Build with invalid -debug-addr succeeded")
	}
}

// TestSpanDurationHistograms checks that ended spans feed the per-kind
// duration histograms under the indexed-name collapse.
func TestSpanDurationHistograms(t *testing.T) {
	reg := NewRegistry()
	now := time.Unix(0, 0)
	tr := NewTracer(Options{Registry: reg, Now: func() time.Time { now = now.Add(time.Millisecond); return now }})
	ctx, run := tr.StartSpan(context.Background(), "run")
	for i := 0; i < 3; i++ {
		_, s := tr.StartSpan(ctx, SpanName("step", i))
		s.End()
	}
	run.End()
	if got := reg.Histogram("span.step.dur_ns").Count(); got != 3 {
		t.Errorf("span.step.dur_ns count = %d, want 3", got)
	}
	if got := reg.Histogram("span.run.dur_ns").Count(); got != 1 {
		t.Errorf("span.run.dur_ns count = %d, want 1", got)
	}
	if fmt.Sprintf("%v", SpanKind("node[12]")) != "node" {
		t.Errorf("SpanKind(node[12]) = %q", SpanKind("node[12]"))
	}
}
