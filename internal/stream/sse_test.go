package stream

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriterReaderRoundTrip frames events through an httptest pipeline and
// decodes them back, covering IDs, types, multi-line data and heartbeats.
func TestWriterReaderRoundTrip(t *testing.T) {
	sent := []Event{
		{ID: "0", Type: TypeLifecycle, Data: []byte(`{"job":"job-1"}`)},
		{Type: "other", Data: []byte("line1\nline2")},
		{ID: "1", Data: []byte(`{"terminal":true}`)},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw, err := NewWriter(w)
		if err != nil {
			t.Errorf("NewWriter: %v", err)
			return
		}
		if err := sw.Comment("hb"); err != nil {
			t.Errorf("Comment: %v", err)
		}
		for _, e := range sent {
			if err := sw.Send(e); err != nil {
				t.Errorf("Send: %v", err)
			}
		}
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	r := NewReader(resp.Body)
	var got []Event
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	if len(got) != len(sent) {
		t.Fatalf("decoded %d events %+v, want %d", len(got), got, len(sent))
	}
	for i, e := range got {
		if e.ID != sent[i].ID || e.Type != sent[i].Type || string(e.Data) != string(sent[i].Data) {
			t.Errorf("event %d = %+v, want %+v", i, e, sent[i])
		}
	}
	// The reader's LastID sticks across ID-less frames.
	if r.LastID() != "1" {
		t.Errorf("LastID = %q, want 1", r.LastID())
	}
}

// TestReaderFraming feeds hand-written wire text: comments between fields,
// space-less separators, and a trailing unterminated frame that must not be
// delivered.
func TestReaderFraming(t *testing.T) {
	wire := ": keepalive\n\n" +
		"id:7\nevent:lifecycle\ndata:{\"a\":1}\n\n" +
		"data: no-type\n\n" +
		"id: 9\ndata: cut off by a crash" // no terminating blank line
	r := NewReader(strings.NewReader(wire))

	e, err := r.Next()
	if err != nil || e.ID != "7" || e.Type != "lifecycle" || string(e.Data) != `{"a":1}` {
		t.Fatalf("frame 1 = %+v, %v", e, err)
	}
	e, err = r.Next()
	if err != nil || e.ID != "" || e.Type != "" || string(e.Data) != "no-type" {
		t.Fatalf("frame 2 = %+v, %v", e, err)
	}
	if e, err = r.Next(); err != io.EOF {
		t.Fatalf("unterminated tail delivered: %+v, %v", e, err)
	}
	// The cut frame's ID still counts for resume: the SSE contract updates
	// last-event-ID when the field arrives. A client resuming from it simply
	// re-receives that event — IDs reference persisted state, re-delivery of
	// the same index is idempotent for consumers keyed on it.
	if r.LastID() != "9" {
		t.Errorf("LastID = %q, want 9", r.LastID())
	}
}
