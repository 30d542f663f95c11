package stream

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// ErrStop is returned by a Client handler to end Run cleanly: the client has
// seen what it was waiting for (typically a terminal lifecycle frame).
var ErrStop = errors.New("stream: handler stopped")

// Client consumes an SSE endpoint with automatic reconnect-and-resume: every
// (re)connection sends the last seen event ID as Last-Event-ID, which the
// daemon answers by replaying the persisted timeline after that position.
// Used by the chaos harness that kills the daemon mid-stream.
type Client struct {
	// URL is the SSE endpoint.
	URL string
	// LastID seeds resume; updated as frames with IDs arrive.
	LastID string
	// HTTP is the client used for requests (http.DefaultClient when nil).
	HTTP *http.Client
	// Retry is the delay between reconnect attempts (default 500ms).
	Retry time.Duration
}

// Run streams events to handle until the handler returns ErrStop (nil), the
// context ends (ctx.Err()), or the server rejects the stream with a
// non-retryable status. Disconnects — clean EOF, mid-frame cuts, 5xx — are
// retried after Retry, resuming from LastID, so a daemon restart is a pause
// rather than an error. A non-nil handler error other than ErrStop aborts
// immediately and is returned.
func (c *Client) Run(ctx context.Context, handle func(Event) error) error {
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	retry := c.Retry
	if retry <= 0 {
		retry = 500 * time.Millisecond
	}
	for {
		err := c.once(ctx, hc, handle)
		if err == nil {
			return nil // handler returned ErrStop
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var fatal *fatalStatusError
		var herr *handlerError
		if errors.As(err, &fatal) {
			return err
		}
		if errors.As(err, &herr) {
			return herr.err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(retry):
		}
	}
}

// fatalStatusError reports a server response that retrying cannot fix
// (404 unknown job, 400 bad resume position, 410 evicted...).
type fatalStatusError struct{ status int }

func (e *fatalStatusError) Error() string {
	return fmt.Sprintf("stream: server rejected the stream: status %d", e.status)
}

// handlerError marks an error raised by the handler (not the connection), so
// Run aborts instead of reconnecting.
type handlerError struct{ err error }

func (e *handlerError) Error() string { return e.err.Error() }

// once runs a single connection until it drops or the handler stops it.
// A nil return means the handler returned ErrStop.
func (c *Client) once(ctx context.Context, hc *http.Client, handle func(Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.URL, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if c.LastID != "" {
		req.Header.Set("Last-Event-ID", c.LastID)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode >= 500 {
			return fmt.Errorf("stream: status %d", resp.StatusCode)
		}
		return &fatalStatusError{status: resp.StatusCode}
	}
	r := NewReader(resp.Body)
	for {
		e, err := r.Next()
		if err != nil {
			return err // io.EOF included: a closed stream reconnects and resumes
		}
		if e.ID != "" {
			c.LastID = e.ID
		}
		if err := handle(e); err != nil {
			if errors.Is(err, ErrStop) {
				return nil
			}
			return &handlerError{err: err}
		}
	}
}
