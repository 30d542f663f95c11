package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"dedc/internal/cache"
	"dedc/internal/store"
	"dedc/internal/stream"
	"dedc/internal/telemetry"
)

// This file serves dedcd's read-only views of its jobs: GET
// /v1/jobs/{id}/events streams one job's lifecycle as Server-Sent Events, and
// GET /v1/stats serves a one-shot daemon summary.
//
// A stream reads the store's watch for its job (store.Watch): every frame is
// one persisted timeline transition. The watch is a bounded ring, so a slow
// stream never blocks the store — its ring overflows oldest-first, counted on
// telemetry.stream_dropped, and the handler heals the gap from the persisted
// timeline.
//
// Resume contract: every frame carries the job's timeline index as the SSE
// event ID. A client reconnecting with Last-Event-ID: N gets timeline[N+1:]
// replayed from the store — which survives daemon restarts — then the live
// tail.

// defaultHeartbeat is the idle-stream comment interval. It keeps
// intermediaries from idling the connection out and bounds how long a
// vanished client holds a handler goroutine.
const defaultHeartbeat = 15 * time.Second

// subBuf is the per-stream watch ring size. A job's whole timeline under the
// default -max-attempts (submitted, a claim and a requeue per attempt, the
// terminal entry) fits; a longer burst while the client is slow is healed
// from the persisted timeline.
const subBuf = 16

// lifecycleFrom is the lifecycle frame payload of a live watch update.
func lifecycleFrom(u store.Update) stream.Lifecycle {
	return stream.Lifecycle{
		Job:      u.JobID,
		Index:    u.Index,
		Type:     u.Entry.Type,
		TS:       u.Entry.TS,
		Attempt:  u.Entry.Attempt,
		Worker:   u.Entry.Worker,
		Reason:   u.Entry.Reason,
		State:    string(u.State),
		Terminal: u.Terminal(),
		Error:    u.Error,
	}
}

// lifecycleOf reconstructs a lifecycle frame payload from a persisted
// timeline entry — the replay half of Last-Event-ID resume. The job's error
// is attached only to the entry it describes (the final one when terminal).
func lifecycleOf(j store.Job, idx int) stream.Lifecycle {
	e := j.Timeline[idx]
	st := store.TimelineState(e.Type)
	lc := stream.Lifecycle{
		Job:      j.ID,
		Index:    idx,
		Type:     e.Type,
		TS:       e.TS,
		Attempt:  e.Attempt,
		Worker:   e.Worker,
		Reason:   e.Reason,
		State:    string(st),
		Terminal: st.Terminal(),
	}
	if idx == len(j.Timeline)-1 && j.Error != "" {
		lc.Error = j.Error
	}
	return lc
}

// sendLifecycleAt frames timeline entry idx of j onto sw.
func sendLifecycleAt(sw *stream.Writer, j store.Job, idx int) error {
	data, err := json.Marshal(lifecycleOf(j, idx))
	if err != nil {
		return err
	}
	return sw.Send(stream.Event{ID: strconv.Itoa(idx), Type: stream.TypeLifecycle, Data: data})
}

// replayTimeline sends every persisted entry after `sent`, returning the new
// high-water index and whether the job is terminal. This is both the resume
// path on connect and the gap-heal path when a stream ring overflowed.
func (s *server) replayTimeline(sw *stream.Writer, id string, sent int) (int, bool, error) {
	j, p := s.st.Lookup(id)
	if p != store.Found {
		// Evicted mid-stream (terminal + compaction raced us): nothing more
		// to say; the frames already sent include the terminal transition or
		// the client re-fetches via the jobs API.
		return sent, true, nil
	}
	for idx := sent + 1; idx < len(j.Timeline); idx++ {
		if err := sendLifecycleAt(sw, j, idx); err != nil {
			return sent, false, err
		}
		sent = idx
	}
	return sent, j.State.Terminal(), nil
}

// handleEvents serves GET /v1/jobs/{id}/events: an SSE stream of the job's
// lifecycle (persisted timeline transitions, resumable via Last-Event-ID).
// The stream ends at the job's terminal transition or when the client
// disconnects; heartbeat comments flow while nothing happens.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sent := -1
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("Last-Event-ID must be a timeline index, got %q", v))
			return
		}
		sent = n
	}

	// Subscribe before the replay snapshot: a transition landing during
	// replay waits in the ring and is deduped by index below, so the merge
	// is gapless without ever blocking the store.
	sub := s.st.Watch(j.ID, subBuf)
	defer sub.Cancel()

	sw, err := stream.NewWriter(w)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	sent, terminal, err := s.replayTimeline(sw, j.ID, sent)
	if err != nil || terminal {
		return
	}

	hb := s.streamHeartbeat
	if hb <= 0 {
		hb = defaultHeartbeat
	}
	for {
		wctx, cancel := context.WithTimeout(r.Context(), hb)
		u, ok := sub.Next(wctx)
		cancel()
		if !ok {
			switch {
			case r.Context().Err() != nil:
				return // client gone
			case wctx.Err() == context.DeadlineExceeded:
				if sw.Comment("hb") != nil {
					return
				}
				continue
			default:
				return // watch closed: the store is shutting down
			}
		}
		if u.Index <= sent {
			// Already sent during replay. An eviction update (index -1)
			// lands here too: it follows the terminal frame, which ends
			// the stream.
			continue
		}
		if u.Index > sent+1 {
			// The ring dropped transitions while we were slow; the
			// persisted timeline has them all.
			if sent, terminal, err = s.replayTimeline(sw, j.ID, sent); err != nil || terminal {
				return
			}
			if u.Index <= sent {
				continue
			}
		}
		sent = u.Index
		data, err := json.Marshal(lifecycleFrom(u))
		if err != nil {
			return
		}
		if sw.Send(stream.Event{ID: strconv.Itoa(u.Index), Type: stream.TypeLifecycle, Data: data}) != nil {
			return
		}
		if u.Terminal() {
			return
		}
	}
}

// cacheStatsOf snapshots the shared parse/ATPG cache for the stats payload;
// a nil or disabled pipeline reports zeros.
func cacheStatsOf(p *cache.Pipeline) stream.CacheStats {
	st := p.Snapshot()
	return stream.CacheStats{
		Entries:   st.Entries,
		Bytes:     st.Bytes,
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		HitRate:   st.HitRate(),
	}
}

// quantilesOf summarizes one latency histogram for the stats payload.
func quantilesOf(h *telemetry.Histogram) stream.Quantiles {
	return stream.Quantiles{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.5),
		P90:   h.Quantile(0.9),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// statsCounters is the counter set exposed on /v1/stats, keyed by wire name.
var statsCounters = map[string]string{
	"submissions":      "dedcd.submissions",
	"sheds":            "dedcd.sheds",
	"store_events":     "store.events",
	"requeues":         "store.requeues",
	"retries":          "store.retries",
	"orphans_requeued": "store.orphans_requeued",
	"compactions":      "store.compactions",
	"evictions":        "store.evictions",
}

// handleStats serves GET /v1/stats: per-state job counts, worker occupancy,
// daemon counters, phase latency quantiles and the parse/ATPG cache. One
// bounded JSON object.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	jobs := map[string]int{}
	for st, n := range s.st.Counts() {
		jobs[string(st)] = n
	}
	counters := make(map[string]int64, len(statsCounters))
	for wire, name := range statsCounters {
		counters[wire] = telemetry.Default.Counter(name).Value()
	}
	writeJSON(w, http.StatusOK, stream.Stats{
		TS:       time.Now(),
		Jobs:     jobs,
		Pool:     s.poolStats(),
		Counters: counters,
		Phases: map[string]stream.Quantiles{
			"queue_wait": quantilesOf(telemetry.Default.Histogram("store.queue_wait_ns")),
			"attempt":    quantilesOf(telemetry.Default.Histogram("store.attempt_ns")),
			"e2e":        quantilesOf(telemetry.Default.Histogram("store.e2e_ns")),
		},
		Cache: cacheStatsOf(s.cache),
	})
}

// handleReady serves GET /readyz: 200 only while the daemon is accepting and
// executing work. Before boot replay finishes (the handler is not even
// mounted yet, but the flag covers racy starts) and from the first drain
// signal on, it returns 503 so load balancers stop routing here while
// /healthz still reports the process alive.
func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{}
	switch {
	case s.draining.Load():
		body["ready"], body["reason"] = false, "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
	case !s.ready.Load():
		body["ready"], body["reason"] = false, "starting"
		writeJSON(w, http.StatusServiceUnavailable, body)
	default:
		body["ready"] = true
		writeJSON(w, http.StatusOK, body)
	}
}

// beginDrain flips /readyz to 503 ahead of the listener shutdown, giving load
// balancers a drain window in which in-flight streams still complete.
func (s *server) beginDrain() {
	s.draining.Store(true)
}
