package store

import "dedc/internal/telemetry"

// Update is one live timeline transition, published as apply folds it. It
// carries only value fields (no slices shared with the job table), so a
// subscriber can hold an Update indefinitely while the store keeps mutating.
type Update struct {
	// JobID identifies the job; Seq is the log sequence of the event that
	// produced the transition.
	JobID string
	Seq   uint64
	// Index is the entry's position in the job's persisted Timeline, so a
	// consumer can stitch a live stream onto a replayed prefix (SSE
	// Last-Event-ID resume) without double-delivery.
	Index int
	// Entry is the timeline entry itself.
	Entry TimelineEvent
	// State, Attempt and Error are the job's post-transition values.
	State   State
	Attempt int
	Error   string
	// HasResult reports whether the job now carries a result payload
	// (payloads themselves travel via Lookup, not the watch stream).
	HasResult bool
	// Evicted marks the update compaction sends when it drops the terminal
	// job from the table (the RetainTerminal bound). It carries only JobID,
	// Index -1, and the job's final State and Attempt.
	Evicted bool
}

// Terminal reports whether the update's post-transition state is terminal —
// the subscriber's teardown signal.
func (u Update) Terminal() bool { return u.State.Terminal() }

// TimelineState maps a timeline entry type to the job state it implies, for
// consumers reconstructing state from a replayed timeline prefix.
func TimelineState(t string) State {
	switch t {
	case TLSubmitted, TLRequeued:
		return StateQueued
	case TLClaimed:
		return StateRunning
	case TLCompleted:
		return StateDone
	case TLFailed:
		return StateFailed
	case TLCancelled:
		return StateCancelled
	}
	return ""
}

// Watch subscribes to id's live timeline transitions, and to its eviction,
// with a ring buffer of buf entries (0 = default). Only transitions folded
// and evictions made by live operations are delivered — boot replay and
// offline validation are silent — and a slow subscriber loses oldest-first,
// counted on telemetry.stream_dropped, rather than ever blocking a store
// mutation. Cancel the subscription when done; closing the store ends it
// after the buffered entries drain.
func (s *Store) Watch(id string, buf int) *telemetry.Sub[Update] {
	return s.watch.Subscribe(buf, func(u Update) bool { return u.JobID == id })
}

// WatchAll is Watch over every job.
func (s *Store) WatchAll(buf int) *telemetry.Sub[Update] {
	return s.watch.Subscribe(buf, nil)
}

// publishWatchLocked emits an Update for ev when apply recorded a timeline
// entry for it (tlBefore is the job's timeline length before apply ran).
// Callers hold s.mu; the bus does its own locking and never blocks.
func (s *Store) publishWatchLocked(ev Event, tlBefore int) {
	j := s.jobs[ev.Job]
	if j == nil || len(j.Timeline) <= tlBefore {
		return
	}
	idx := len(j.Timeline) - 1
	s.watch.Publish(Update{
		JobID:     j.ID,
		Seq:       ev.Seq,
		Index:     idx,
		Entry:     j.Timeline[idx],
		State:     j.State,
		Attempt:   j.Attempt,
		Error:     j.Error,
		HasResult: len(j.Result) > 0,
	})
}

// publishEvictionLocked emits the Evicted update for j. Callers hold s.mu.
func (s *Store) publishEvictionLocked(j *Job) {
	s.watch.Publish(Update{JobID: j.ID, Index: -1, State: j.State, Attempt: j.Attempt, Evicted: true})
}
