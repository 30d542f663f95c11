package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// testClock yields a deterministic, strictly increasing timestamp sequence.
func testClock() func() time.Time {
	t := time.Unix(1000, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestSpanNesting(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	tr := NewTracer(Options{Journal: j, Now: testClock()})

	ctx := WithTracer(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %p, want %p", got, tr)
	}

	ctx, run := tr.StartSpan(ctx, "run", String("circuit", "c17"))
	stepCtx, step := tr.StartSpan(ctx, SpanName("step", 0))
	_, node := tr.StartSpan(stepCtx, SpanName("node", 3))
	if got, want := node.Path(), "run/step[0]/node[3]"; got != want {
		t.Errorf("node path = %q, want %q", got, want)
	}
	node.End(Int("fails", 2))
	step.End()
	run.End()
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}

	var events []ParsedEvent
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		pe, err := ParseEvent(sc.Bytes())
		if err != nil {
			t.Fatalf("ParseEvent(%s): %v", sc.Text(), err)
		}
		events = append(events, pe)
	}
	want := []struct{ span, event string }{
		{"run", "span_start"},
		{"run/step[0]", "span_start"},
		{"run/step[0]/node[3]", "span_start"},
		{"run/step[0]/node[3]", "span_end"},
		{"run/step[0]", "span_end"},
		{"run", "span_end"},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d", len(events), len(want))
	}
	for i, w := range want {
		if events[i].Span != w.span || events[i].Event != w.event {
			t.Errorf("event %d = %s %s, want %s %s", i, events[i].Span, events[i].Event, w.span, w.event)
		}
		if events[i].Seq != int64(i+1) {
			t.Errorf("event %d seq = %d, want %d", i, events[i].Seq, i+1)
		}
	}
	if events[0].Attrs["circuit"] != "c17" {
		t.Errorf("run start circuit attr = %v", events[0].Attrs["circuit"])
	}
	if _, ok := events[3].Attrs["dur_ns"]; !ok {
		t.Error("span_end missing dur_ns")
	}
	if events[3].Attrs["fails"] != float64(2) {
		t.Errorf("node end fails attr = %v", events[3].Attrs["fails"])
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	tr := NewTracer(Options{Journal: j, Now: testClock()})
	_, s := tr.StartSpan(context.Background(), "run")
	s.End()
	s.End()
	j.Flush()
	if n := strings.Count(buf.String(), `"event":"span_end"`); n != 1 {
		t.Errorf("double End emitted %d span_end events, want 1", n)
	}
}

// TestDisabledZeroAlloc is the ISSUE's acceptance guard: the nil-telemetry
// path must not allocate on hot loops.
func TestDisabledZeroAlloc(t *testing.T) {
	var tr *Tracer
	var c *Counter
	var h *Histogram
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		ctx2, s := tr.StartSpan(ctx, "run")
		s.Event("node", Int("i", 1))
		s.End()
		tr.Event(ctx2, "x")
		c.Add(7)
		c.Inc()
		h.Observe(42)
		restore := tr.Phase(ctx2, "diagnosis")
		restore()
	}); n != 0 {
		t.Errorf("disabled telemetry allocates %.1f per op, want 0", n)
	}
	// A nil registry hands out nil metrics; those must be free too.
	var reg *Registry
	if n := testing.AllocsPerRun(100, func() {
		reg.Counter("sim.trials").Inc()
	}); n != 0 {
		t.Errorf("nil registry counter path allocates %.1f per op, want 0", n)
	}
}

func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("shared")
			h := reg.Histogram("lat")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i))
				reg.Gauge("depth").Set(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Histogram("lat").Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterMonotone(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Errorf("counter after negative Add = %d, want 5", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("count = %d", got)
	}
	if got := h.Mean(); got != 500.5 {
		t.Errorf("mean = %v, want 500.5", got)
	}
	// Power-of-two buckets: the median (500) lands in bucket len=9, whose
	// upper edge is 511.
	if got := h.Quantile(0.5); got != 511 {
		t.Errorf("p50 = %d, want 511", got)
	}
	if got := h.Quantile(1.0); got != 1023 {
		t.Errorf("p100 = %d, want 1023", got)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.count").Add(3)
	reg.Gauge("a.depth").Set(-2)
	reg.Histogram("c.lat").Observe(100)
	got := fmt.Sprint(reg.Snapshot())
	// fmt prints map keys sorted, so the rendering is deterministic.
	want := `map[a.depth:-2 b.count:3 c.lat:map[count:1 max:100 mean:100 p50:127 p90:127 p99:127 sum:100]]`
	if got != want {
		t.Errorf("Snapshot() = %s\nwant         %s", got, want)
	}
}

func TestJournalSchema(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Emit(Event{
		Time:  time.Unix(42, 7),
		Seq:   1,
		Span:  `run/"x"`,
		Event: "node",
		Attrs: []Attr{
			String("name", "g\\17\n"),
			Int("i", -3),
			Float("score", 0.5),
			Bool("ok", true),
			{Key: "dur", Value: 3 * time.Millisecond},
			{Key: "lines", Value: []string{"a", "b"}},
			{Key: "idx", Value: []int{1, 2}},
			{Key: "none", Value: nil},
		},
	})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSuffix(buf.String(), "\n")
	want := "{\"v\":2,\"ts\":42000000007,\"seq\":1,\"span\":\"run/\\\"x\\\"\",\"event\":\"node\"," +
		"\"name\":\"g\\\\17\\u000a\",\"i\":-3,\"score\":0.5,\"ok\":true,\"dur\":3000000," +
		"\"lines\":[\"a\",\"b\"],\"idx\":[1,2],\"none\":null}"
	if line != want {
		t.Errorf("journal line =\n%s\nwant\n%s", line, want)
	}
	pe, err := ParseEvent([]byte(line))
	if err != nil {
		t.Fatalf("ParseEvent: %v", err)
	}
	if pe.V != SchemaVersion || pe.TS != 42000000007 || pe.Span != `run/"x"` || pe.Event != "node" {
		t.Errorf("parsed = %+v", pe)
	}
	if pe.Attrs["name"] != "g\\17\n" {
		t.Errorf("round-tripped name = %q", pe.Attrs["name"])
	}
}

func TestParseEventRejects(t *testing.T) {
	bad := []string{
		`not json`,
		`{"ts":1,"seq":1,"span":"s","event":"e"}`,         // missing v
		`{"v":99,"ts":1,"seq":1,"span":"s","event":"e"}`,  // wrong version
		`{"v":1,"seq":1,"span":"s","event":"e"}`,          // missing ts
		`{"v":1,"ts":1,"span":"s","event":"e"}`,           // missing seq
		`{"v":1,"ts":1,"seq":1,"event":"e"}`,              // missing span
		`{"v":1,"ts":1,"seq":1,"span":"s"}`,               // missing event
		`{"v":1,"ts":"x","seq":1,"span":"s","event":"e"}`, // ts not int
		`{"v":1,"ts":1,"seq":1,"span":7,"event":"e"}`,     // span not string
	}
	for _, line := range bad {
		if _, err := ParseEvent([]byte(line)); err == nil {
			t.Errorf("ParseEvent(%s) succeeded, want error", line)
		}
	}
}

func TestJournalConcurrent(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	tr := NewTracer(Options{Journal: j})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Event(context.Background(), "tick", Int("i", i))
			}
		}()
	}
	wg.Wait()
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		if _, err := ParseEvent(sc.Bytes()); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		n++
	}
	if n != 400 {
		t.Errorf("got %d journal lines, want 400", n)
	}
}

func TestPhaseRestore(t *testing.T) {
	tr := NewTracer(Options{PprofLabels: true})
	ctx, s := tr.StartSpan(context.Background(), "run")
	restore := tr.Phase(ctx, "diagnosis")
	restore()
	s.End()
	// Disabled tracer returns the shared no-op without allocating.
	var off *Tracer
	if n := testing.AllocsPerRun(10, func() { off.Phase(ctx, "x")() }); n != 0 {
		t.Errorf("disabled Phase allocates %.1f per op", n)
	}
}

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	stop, err := StartProfiles(ProfileConfig{
		CPUProfile: dir + "/cpu.out",
		MemProfile: dir + "/mem.out",
		Trace:      dir + "/trace.out",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/cpu.out", "/mem.out", "/trace.out"} {
		fi, err := os.Stat(dir + name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	// Empty config: no-op stop.
	stop, err = StartProfiles(ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
