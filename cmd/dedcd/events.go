package main

import (
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
// A stream reads the job's persisted timeline and nothing else: every frame
// is one timeline entry, sent once, in index order. The handler takes the
// store's change signal (store.Changed) before each read, sends the entries
// it has not sent yet, and waits for the next change. A slow client holds
// only its own position, never a copy of the timeline, and never delays the
// store.
//
// Resume contract: every frame carries the job's timeline index as the SSE
// event ID. A client reconnecting with Last-Event-ID: N gets timeline[N+1:]
// from the store — which survives daemon restarts — then the live tail.

// defaultHeartbeat is the idle-stream comment interval. It keeps
// intermediaries from idling the connection out and bounds how long a
// vanished client holds a handler goroutine.
const defaultHeartbeat = 15 * time.Second

// lifecycleOf builds the lifecycle frame payload of persisted timeline entry
// idx. The job's error is attached only to the newest entry at read time
// (the final one when terminal).
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
// high-water index and whether the stream is finished: the job is terminal,
// or it was evicted (the frames already sent include the terminal entry, or
// the client re-fetches through the jobs API).
func (s *server) replayTimeline(sw *stream.Writer, id string, sent int) (int, bool, error) {
	j, p := s.st.Lookup(id)
	if p != store.Found {
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
// lifecycle (persisted timeline entries, resumable via Last-Event-ID). The
// stream ends at the job's terminal entry, at its eviction, when the store
// closes (after the entries it holds) or when the client disconnects;
// heartbeat comments flow while nothing is sent.
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
	sw, err := stream.NewWriter(w)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}

	hb := s.streamHeartbeat
	if hb <= 0 {
		hb = defaultHeartbeat
	}
	idle := time.NewTicker(hb)
	defer idle.Stop()
	for {
		// Take the signal before the read: a change that lands after the
		// read closes this channel, so the wait below cannot miss it.
		changed, open := s.st.Changed()
		prev := sent
		var done bool
		if sent, done, err = s.replayTimeline(sw, j.ID, sent); err != nil || done || !open {
			return
		}
		if sent != prev {
			idle.Reset(hb)
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return // client gone
		case <-idle.C:
			if sw.Comment("hb") != nil {
				return
			}
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
