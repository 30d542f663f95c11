// Package stream is the wire layer of dedcd's job event stream and stats:
// Server-Sent Events framing (writer and reader), a reconnecting client that
// resumes via Last-Event-ID, and the JSON schemas carried on the
// /v1/jobs/{id}/events and /v1/stats endpoints. It is stdlib-only, like
// everything else in the stack, so test harnesses consume the same code the
// daemon serves with.
package stream

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"
)

// Event is one SSE frame. ID and Type map to the "id:" and "event:" fields
// (empty = omitted); Data is the payload, split across "data:" lines on
// newlines and rejoined by conforming readers.
type Event struct {
	ID   string
	Type string
	Data []byte
}

// Writer frames events onto an http.ResponseWriter, flushing after every
// frame so a proxy-less client sees each event as it happens.
type Writer struct {
	w  io.Writer
	rc *http.ResponseController
}

// NewWriter sets the SSE response headers (Content-Type: text/event-stream,
// no caching, no buffering) and returns a Writer. It fails when the
// underlying connection cannot flush — SSE over a non-flushable writer would
// buffer forever.
func NewWriter(w http.ResponseWriter) (*Writer, error) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	rc := http.NewResponseController(w)
	if err := rc.Flush(); err != nil {
		return nil, errors.New("stream: response writer cannot flush")
	}
	return &Writer{w: w, rc: rc}, nil
}

// Send writes one event frame and flushes it.
func (sw *Writer) Send(e Event) error {
	var b bytes.Buffer
	if e.ID != "" {
		b.WriteString("id: " + e.ID + "\n")
	}
	if e.Type != "" {
		b.WriteString("event: " + e.Type + "\n")
	}
	for _, line := range bytes.Split(e.Data, []byte("\n")) {
		b.WriteString("data: ")
		b.Write(line)
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	if _, err := sw.w.Write(b.Bytes()); err != nil {
		return err
	}
	return sw.rc.Flush()
}

// Comment writes a comment line (": text") and flushes — the SSE heartbeat
// form: ignored by conforming readers, but it keeps intermediaries from
// idling out the connection and lets the server detect a gone client.
func (sw *Writer) Comment(text string) error {
	if _, err := io.WriteString(sw.w, ": "+text+"\n\n"); err != nil {
		return err
	}
	return sw.rc.Flush()
}

// Reader decodes SSE frames from a response body. It tracks the last seen
// event ID across frames, as the browser EventSource contract does, so a
// reconnecting client resumes from the right position even when later frames
// carried no ID of their own.
type Reader struct {
	sc     *bufio.Scanner
	lastID string
}

// maxLine bounds one SSE field line; result payloads ride the job API, not
// the stream, so frames stay small.
const maxLine = 1 << 20

// NewReader returns a Reader decoding from r.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxLine)
	return &Reader{sc: sc}
}

// Next returns the next complete event frame. Comment-only frames are
// skipped. io.EOF reports a cleanly ended stream.
func (r *Reader) Next() (Event, error) {
	e := Event{}
	var data [][]byte
	seen := false
	for r.sc.Scan() {
		line := r.sc.Text()
		if line == "" {
			if !seen {
				continue // comment-only frame
			}
			e.Data = bytes.Join(data, []byte("\n"))
			return e, nil
		}
		if strings.HasPrefix(line, ":") {
			continue
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			e.ID = value
			r.lastID = value
		case "event":
			e.Type = value
			seen = true
		case "data":
			data = append(data, []byte(value))
			seen = true
		}
	}
	if err := r.sc.Err(); err != nil {
		return Event{}, err
	}
	return Event{}, io.EOF
}

// LastID returns the most recent "id:" field seen on any frame.
func (r *Reader) LastID() string { return r.lastID }
