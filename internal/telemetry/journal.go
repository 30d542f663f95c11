package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"
)

// SchemaVersion is the value of the "v" field on every journal line.
// Bump it on any incompatible change to event names or required fields.
//
// v1: span_start/span_end/solution events with v/ts/seq/span/event fields.
// v2: adds "checkpoint" events carrying the diagnosis iteration frontier
// (see internal/diagnose), enabling crash/resume. v2 readers accept v1
// journals; v1 journals must not contain checkpoint events.
const SchemaVersion = 2

// MinSchemaVersion is the oldest journal schema readers still accept.
const MinSchemaVersion = 1

// EventCheckpoint is the v2 event name carrying a resumable search state.
// Journal flushes through to the underlying writer after each one, so a
// process killed at any instant leaves its latest checkpoint durable on disk.
const EventCheckpoint = "checkpoint"

// Event is one journal line. Attrs keep insertion order so the serialized
// form is byte-stable across runs (encoding/json maps would randomize it).
type Event struct {
	Time  time.Time
	Seq   int64
	Span  string
	Event string
	Attrs []Attr
}

// Journal writes a JSONL event stream: one JSON object per line, each with
// the required fields "v" (schema version), "ts" (unix nanoseconds), "seq"
// (1-based emission index), "span" (slash path) and "event" (name), followed
// by the event's attrs in emission order. Safe for concurrent use; a nil
// *Journal no-ops.
type Journal struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	err error
}

// NewJournal returns a Journal writing to w. If w is also an io.Closer,
// Close closes it.
func NewJournal(w io.Writer) *Journal {
	j := &Journal{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

// Emit appends one event line. Write errors are sticky and reported by Close.
func (j *Journal) Emit(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	buf := make([]byte, 0, 128)
	buf = append(buf, `{"v":`...)
	buf = strconv.AppendInt(buf, SchemaVersion, 10)
	buf = append(buf, `,"ts":`...)
	buf = strconv.AppendInt(buf, e.Time.UnixNano(), 10)
	buf = append(buf, `,"seq":`...)
	buf = strconv.AppendInt(buf, e.Seq, 10)
	buf = append(buf, `,"span":`...)
	buf = appendJSONString(buf, e.Span)
	buf = append(buf, `,"event":`...)
	buf = appendJSONString(buf, e.Event)
	for _, a := range e.Attrs {
		buf = append(buf, ',')
		buf = appendJSONString(buf, a.Key)
		buf = append(buf, ':')
		buf = appendJSONValue(buf, a.Value)
	}
	buf = append(buf, '}', '\n')
	_, j.err = j.w.Write(buf)
	if e.Event == EventCheckpoint && j.err == nil {
		// Checkpoints are the crash-recovery anchor: make them durable
		// immediately instead of waiting for the 4KB bufio threshold.
		j.err = j.w.Flush()
	}
}

// Flush writes buffered lines through to the underlying writer.
func (j *Journal) Flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.err = j.w.Flush()
	return j.err
}

// Close flushes and, when the underlying writer is a Closer, closes it.
// It returns the first error seen by any Emit/Flush/Close.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	err := j.Flush()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.c != nil {
		if cerr := j.c.Close(); err == nil {
			err = cerr
		}
		j.c = nil
	}
	return err
}

func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c < 0x20:
			buf = append(buf, fmt.Sprintf(`\u%04x`, c)...)
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

func appendJSONValue(buf []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, "null"...)
	case string:
		return appendJSONString(buf, x)
	case bool:
		return strconv.AppendBool(buf, x)
	case int:
		return strconv.AppendInt(buf, int64(x), 10)
	case int64:
		return strconv.AppendInt(buf, x, 10)
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return append(buf, "null"...)
		}
		return strconv.AppendFloat(buf, x, 'g', -1, 64)
	case time.Duration:
		return strconv.AppendInt(buf, x.Nanoseconds(), 10)
	case []string:
		buf = append(buf, '[')
		for i, s := range x {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, s)
		}
		return append(buf, ']')
	case []int:
		buf = append(buf, '[')
		for i, n := range x {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(n), 10)
		}
		return append(buf, ']')
	default:
		// Rare path (nested objects from engine code); falls back to
		// encoding/json and degrades to null on marshal failure.
		b, err := json.Marshal(x)
		if err != nil {
			return append(buf, "null"...)
		}
		return append(buf, b...)
	}
}

// ParsedEvent is one validated journal line as decoded by ParseEvent.
type ParsedEvent struct {
	V     int64
	TS    int64
	Seq   int64
	Span  string
	Event string
	// Attrs holds every remaining field.
	Attrs map[string]any
}

// ParseEvent decodes and validates one journal line against the schema:
// well-formed JSON object with integer "v" in the supported range
// [MinSchemaVersion, SchemaVersion], integer "ts" and "seq", and string
// "span" and "event". Version-consistency across a whole journal (a v1
// header forbids v2-only events later on) is a stream property checked by
// ReplayJournal, not per line.
func ParseEvent(line []byte) (ParsedEvent, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(line, &raw); err != nil {
		return ParsedEvent{}, fmt.Errorf("journal line is not a JSON object: %w", err)
	}
	var pe ParsedEvent
	intField := func(key string, dst *int64) error {
		m, ok := raw[key]
		if !ok {
			return fmt.Errorf("journal line missing %q", key)
		}
		if err := json.Unmarshal(m, dst); err != nil {
			return fmt.Errorf("journal field %q: %w", key, err)
		}
		return nil
	}
	strField := func(key string, dst *string) error {
		m, ok := raw[key]
		if !ok {
			return fmt.Errorf("journal line missing %q", key)
		}
		if err := json.Unmarshal(m, dst); err != nil {
			return fmt.Errorf("journal field %q: %w", key, err)
		}
		return nil
	}
	if err := intField("v", &pe.V); err != nil {
		return ParsedEvent{}, err
	}
	if pe.V < MinSchemaVersion || pe.V > SchemaVersion {
		return ParsedEvent{}, fmt.Errorf("journal schema version %d, supported %d..%d", pe.V, MinSchemaVersion, SchemaVersion)
	}
	if err := intField("ts", &pe.TS); err != nil {
		return ParsedEvent{}, err
	}
	if err := intField("seq", &pe.Seq); err != nil {
		return ParsedEvent{}, err
	}
	if err := strField("span", &pe.Span); err != nil {
		return ParsedEvent{}, err
	}
	if err := strField("event", &pe.Event); err != nil {
		return ParsedEvent{}, err
	}
	pe.Attrs = make(map[string]any, len(raw))
	for k, m := range raw {
		switch k {
		case "v", "ts", "seq", "span", "event":
			continue
		}
		var v any
		if err := json.Unmarshal(m, &v); err != nil {
			return ParsedEvent{}, fmt.Errorf("journal field %q: %w", k, err)
		}
		pe.Attrs[k] = v
	}
	return pe, nil
}
