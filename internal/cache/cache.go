// Package cache is the hot-path reuse layer: a content-addressed,
// byte-budgeted LRU store keyed by canonical netlist fingerprints (see
// Fingerprint), holding parsed circuits and ATPG vector-set results so
// service jobs that share a circuit skip parse+ATPG entirely. Values are isolated on
// the way out (circuits are cloned, vector sets deep-copied), so a cache hit
// is observationally identical to recomputing — the determinism contract the
// tests pin down is "cached-vs-fresh results are bit-identical".
package cache

import (
	"container/list"
	"sync"

	"dedc/internal/telemetry"
)

// Stats is a point-in-time summary of a store's traffic and occupancy.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// HitRate is hits/(hits+misses), or 0 before any traffic.
func (s Stats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

type entry struct {
	key  string
	val  any
	size int64
}

// Store is a concurrency-safe LRU keyed by string, bounded by a byte budget
// rather than an entry count (cached circuits and vector sets vary by orders
// of magnitude in size). A nil Store, or one built with maxBytes <= 0, is
// disabled: Get always misses without counting, Put is a no-op — the "0
// disables" contract of dedcd's -cache-bytes flag.
type Store struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	ll    *list.List // front = most recently used; values are *entry
	byKey map[string]*list.Element

	hits, misses, evictions int64

	// Optional registry mirrors, wired by Instrument; nil no-ops.
	cHits, cMisses, cEvictions *telemetry.Counter
	gBytes, gEntries           *telemetry.Gauge
}

// New returns a store bounded to maxBytes of cached-value size (as reported
// by callers at Put time). maxBytes <= 0 returns a disabled store.
func New(maxBytes int64) *Store {
	if maxBytes <= 0 {
		return &Store{}
	}
	return &Store{max: maxBytes, ll: list.New(), byKey: map[string]*list.Element{}}
}

// Enabled reports whether the store holds entries at all.
func (s *Store) Enabled() bool { return s != nil && s.max > 0 }

// Instrument mirrors the store's traffic onto reg as cache.hits /
// cache.misses / cache.evictions counters and cache.bytes / cache.entries
// gauges, all with # HELP text for /metrics. A nil registry detaches.
func (s *Store) Instrument(reg *telemetry.Registry) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cHits = reg.Counter("cache.hits", "Content-addressed cache lookups served from memory.")
	s.cMisses = reg.Counter("cache.misses", "Content-addressed cache lookups that fell through to a recompute.")
	s.cEvictions = reg.Counter("cache.evictions", "Cache entries evicted to stay under the byte budget.")
	s.gBytes = reg.Gauge("cache.bytes", "Bytes of cached values currently resident.")
	s.gEntries = reg.Gauge("cache.entries", "Cache entries currently resident.")
}

// Get returns the cached value for key. Callers must treat the returned
// value as shared and immutable; the typed wrappers in Pipeline copy on the
// way out.
func (s *Store) Get(key string) (any, bool) {
	if !s.Enabled() {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[key]
	if !ok {
		s.misses++
		s.cMisses.Inc()
		return nil, false
	}
	s.hits++
	s.cHits.Inc()
	s.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put stores val under key at the given size, evicting least-recently-used
// entries until the budget holds. A value larger than the whole budget is
// not stored. Re-putting an existing key replaces its value and size.
func (s *Store) Put(key string, val any, size int64) {
	if !s.Enabled() || size > s.max {
		return
	}
	if size < 0 {
		size = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		e := el.Value.(*entry)
		s.bytes += size - e.size
		e.val, e.size = val, size
		s.ll.MoveToFront(el)
	} else {
		s.byKey[key] = s.ll.PushFront(&entry{key: key, val: val, size: size})
		s.bytes += size
	}
	for s.bytes > s.max {
		back := s.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		s.ll.Remove(back)
		delete(s.byKey, e.key)
		s.bytes -= e.size
		s.evictions++
		s.cEvictions.Inc()
	}
	s.gBytes.Set(s.bytes)
	s.gEntries.Set(int64(s.ll.Len()))
}

// Len returns the resident entry count.
func (s *Store) Len() int {
	if !s.Enabled() {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Bytes returns the resident value size.
func (s *Store) Bytes() int64 {
	if !s.Enabled() {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Snapshot returns the store's traffic and occupancy stats.
func (s *Store) Snapshot() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Hits: s.hits, Misses: s.misses, Evictions: s.evictions}
	if s.ll != nil {
		st.Entries = int64(s.ll.Len())
		st.Bytes = s.bytes
	}
	return st
}
