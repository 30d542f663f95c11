package store

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

// Changed returns a channel that is closed at the store's next live append
// or eviction; boot replay and offline validation never close it. A consumer
// takes the channel before it reads the state it cares about, so a change
// that lands between the read and the wait still wakes it. Every change
// wakes every waiter, whichever job it touched: a wake costs O(waiters), and
// the channel is allocated only when some caller asks for one. Close wakes
// every waiter; once the store is closed, ok is false and the channel is
// nil, as there is no change left to wait for.
func (s *Store) Changed() (ch <-chan struct{}, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	if s.changed == nil {
		s.changed = make(chan struct{})
	}
	return s.changed, true
}

// Evictions returns the number of jobs this store has evicted under the
// RetainTerminal and snapshot size bounds, the compaction at Open included.
// A consumer notices new evictions by comparing it across Changed wakes.
func (s *Store) Evictions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}

// signalLocked wakes every Changed waiter. Callers hold s.mu.
func (s *Store) signalLocked() {
	if s.changed != nil {
		close(s.changed)
		s.changed = nil
	}
}
