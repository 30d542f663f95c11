package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records one span per call into a layer's public function, from
// the benchmark's own code. Spans of one op share the op index and have the
// op's root span as parent. Spans stay in memory and are written out when
// the run ends. A disabled tracer only runs the wrapped calls.
type tracer struct {
	on   bool
	base time.Time

	mu    sync.Mutex
	spans []spanRec
	// perSpan is the measured cost of recording one span, calibrated at
	// start; overhead() charges it to every recorded span.
	perSpan time.Duration
}

// spanRec is one recorded span. Times are offsets from the tracer's start.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, base: time.Now()}
	if on {
		t.perSpan = calibrateSpan()
	}
	return t
}

// calibrateSpan measures what recording one span costs: two clock reads
// and an append under the lock.
func calibrateSpan() time.Duration {
	const n = 20000
	c := &tracer{on: true, base: time.Now()}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		c.call(i, "calibrate", -1, func() {})
	}
	return time.Since(t0) / n
}

// call runs f inside a span and returns its duration (zero when tracing is
// off: the untraced run pays for nothing but the call).
func (t *tracer) call(op int, name string, parent int, f func()) time.Duration {
	if !t.on {
		f()
		return 0
	}
	start := time.Now()
	f()
	end := time.Now()
	t.add(op, name, parent, start, end)
	return end.Sub(start)
}

// add records a span with given bounds (used for the phases dedcd's job
// timeline reports) and returns its id.
func (t *tracer) add(op int, name string, parent int, start, end time.Time) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))})
	t.mu.Unlock()
	return id
}

// begin opens an op's root span and returns its id, the parent of the op's
// layer spans.
func (t *tracer) begin(op int) int {
	if !t.on {
		return -1
	}
	now := time.Now()
	return t.add(op, "op", -1, now, now)
}

// finish closes the root span opened by begin.
func (t *tracer) finish(id int) {
	if !t.on {
		return
	}
	end := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// overhead estimates the time the tracer itself added to the ops.
func (t *tracer) overhead() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(len(t.spans)) * t.perSpan
}

// writeSpans dumps the recorded spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if !t.on {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
