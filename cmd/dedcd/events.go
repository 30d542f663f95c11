package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"dedc/internal/cache"
	"dedc/internal/diagnose"
	"dedc/internal/store"
	"dedc/internal/stream"
	"dedc/internal/telemetry"
)

// This file is the live-introspection layer of dedcd: GET /v1/jobs/{id}/events
// streams one job's lifecycle and search progress as Server-Sent Events, and
// GET /v1/stats serves a one-shot daemon summary (dedctop's poll target).
//
// Every frame flows through one bounded fan-out bus (telemetry.Bus): the store
// watch pump publishes persisted timeline transitions, and running attempts
// publish checkpoint progress and solution events teed from their run
// journals. A slow stream never blocks the diagnosis hot path — its ring
// overflows oldest-first, counted on telemetry.stream_dropped, and the
// handler heals lifecycle gaps from the persisted timeline.
//
// Resume contract: lifecycle frames carry the job's timeline index as the SSE
// event ID. A client reconnecting with Last-Event-ID: N gets timeline[N+1:]
// replayed from the store — which survives daemon restarts — then the live
// tail. Progress and solution frames are ephemeral (no ID): they are
// deliberately absent from resume, since the state they describe is
// recoverable from the next checkpoint anyway.

// streamItem is one frame on the events bus, pre-marshalled once at publish
// so N subscribers cost N ring slots, not N encodings.
type streamItem struct {
	job      string
	kind     string // stream.TypeLifecycle / TypeProgress / TypeSolution
	index    int    // timeline index (lifecycle only; -1 otherwise)
	terminal bool
	data     []byte
}

// defaultHeartbeat is the idle-stream comment interval. It keeps
// intermediaries from idling the connection out and bounds how long a
// vanished client holds a handler goroutine.
const defaultHeartbeat = 15 * time.Second

// subBuf is the per-stream ring size: enough for the checkpoint cadence of a
// busy attempt, small enough that a stalled client wastes little.
const subBuf = 256

// watchPump converts store watch updates into lifecycle frames on the events
// bus. It is the only lifecycle publisher, so per-job frame order matches
// timeline order. An eviction update publishes no frame; it removes the
// job's attempt journals instead. Runs until ctx ends or the store closes.
func (s *server) watchPump(ctx context.Context, sub *telemetry.Sub[store.Update]) {
	defer sub.Cancel()
	for {
		u, ok := sub.Next(ctx)
		if !ok {
			return
		}
		if u.Evicted {
			s.removeJournals(u.JobID, u.Attempt)
			continue
		}
		if u.Terminal() {
			s.progressMu.Lock()
			delete(s.progress, u.JobID)
			s.progressMu.Unlock()
		}
		lc := stream.Lifecycle{
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
		data, err := json.Marshal(lc)
		if err != nil {
			continue
		}
		s.events.Publish(streamItem{job: u.JobID, kind: stream.TypeLifecycle,
			index: u.Index, terminal: lc.Terminal, data: data})
	}
}

// progressHook is an attempt's checkpoint callback: it publishes live
// progress. satStart anchors the per-attempt sat.conflicts delta.
func (s *server) progressHook(j store.Job) func(*diagnose.Checkpoint) {
	satConflicts := telemetry.Default.Counter("sat.conflicts")
	satStart := satConflicts.Value()
	return func(cp *diagnose.Checkpoint) {
		p := stream.Progress{
			Job:          j.ID,
			Attempt:      j.Attempt,
			Step:         cp.Step,
			Round:        cp.Round,
			Frontier:     len(cp.Frontier),
			Solutions:    len(cp.Solutions),
			Candidates:   cp.Stats.Candidates,
			Simulations:  cp.Stats.Simulations,
			SatConflicts: satConflicts.Value() - satStart,
			TS:           time.Now(),
		}
		s.progressMu.Lock()
		s.progress[j.ID] = p
		s.progressMu.Unlock()
		if data, err := json.Marshal(p); err == nil {
			s.events.Publish(streamItem{job: j.ID, kind: stream.TypeProgress, index: -1, data: data})
		}
	}
}

// solutionMarker identifies solution events in journal lines without a full
// parse — the mirror runs under the journal lock on the engine's hot path.
var solutionMarker = []byte(`"event":"solution"`)

// mirrorSolutions publishes an attempt's journaled solution events to the
// events bus as they land. The frame payload is the journal line itself
// (schema v2), so stream consumers see exactly what the journal persisted.
func (s *server) mirrorSolutions(jobID string) func([]byte) {
	return func(line []byte) {
		if !bytes.Contains(line, solutionMarker) {
			return
		}
		s.events.Publish(streamItem{job: jobID, kind: stream.TypeSolution, index: -1, data: line})
	}
}

// lifecycleOf reconstructs a lifecycle frame payload from a persisted
// timeline entry — the replay half of Last-Event-ID resume. jobErr is the
// job's current error, attached only to the entry it describes (the final
// one when terminal).
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
// lifecycle (persisted timeline transitions, resumable via Last-Event-ID)
// merged with live attempt progress and solution events. The stream ends at
// the job's terminal transition or when the client disconnects; heartbeat
// comments flow while nothing happens.
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
	sub := s.events.Subscribe(subBuf, func(it streamItem) bool { return it.job == j.ID })
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
		it, ok := sub.Next(wctx)
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
				return // bus closed: daemon shutting down
			}
		}
		if it.kind == stream.TypeLifecycle {
			if it.index <= sent {
				continue // already sent during replay
			}
			if it.index > sent+1 {
				// The ring dropped transitions while we were slow; the
				// persisted timeline has them all.
				var terminal bool
				if sent, terminal, err = s.replayTimeline(sw, j.ID, sent); err != nil || terminal {
					return
				}
				if it.index <= sent {
					continue
				}
			}
			sent = it.index
		}
		var id string
		if it.kind == stream.TypeLifecycle {
			id = strconv.Itoa(it.index)
		}
		if sw.Send(stream.Event{ID: id, Type: it.kind, Data: it.data}) != nil {
			return
		}
		if it.terminal {
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
// daemon counters, phase latency quantiles, stream fan-out health, and the
// latest checkpoint of every running attempt. One bounded JSON object —
// dedctop polls it once per frame.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	jobs := map[string]int{}
	for st, n := range s.st.Counts() {
		jobs[string(st)] = n
	}
	counters := make(map[string]int64, len(statsCounters))
	for wire, name := range statsCounters {
		counters[wire] = telemetry.Default.Counter(name).Value()
	}
	s.progressMu.Lock()
	running := make([]stream.Progress, 0, len(s.progress))
	for _, p := range s.progress {
		running = append(running, p)
	}
	s.progressMu.Unlock()
	sort.Slice(running, func(i, k int) bool { return running[i].Job < running[k].Job })

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
		Stream: stream.StreamStats{
			Subscribers: s.events.Subscribers(),
			Dropped:     telemetry.StreamDropped.Value(),
		},
		Cache:   cacheStatsOf(s.cache),
		Running: running,
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
