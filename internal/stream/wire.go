package stream

import "time"

// TypeLifecycle is the one SSE event type on /v1/jobs/{id}/events. Every
// frame carries an "id:" field (the timeline index) that drives Last-Event-ID
// resume, so a resuming client's position always references the persisted
// timeline.
const TypeLifecycle = "lifecycle"

// Lifecycle is the data payload of a "lifecycle" frame: one persisted
// timeline transition. Index is the entry's position in the job's timeline —
// the frame's SSE ID — and State/Terminal describe the job after the
// transition, so a client needs no state machine of its own.
type Lifecycle struct {
	Job      string    `json:"job"`
	Index    int       `json:"index"`
	Type     string    `json:"type"` // timeline entry type (submitted, claimed, ...)
	TS       time.Time `json:"ts"`
	Attempt  int       `json:"attempt,omitempty"`
	Worker   string    `json:"worker,omitempty"`
	Reason   string    `json:"reason,omitempty"`
	State    string    `json:"state"`
	Terminal bool      `json:"terminal,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// Quantiles summarizes one latency histogram on /v1/stats. Quantile values
// are power-of-two bucket upper bounds, matching telemetry.Histogram.
type Quantiles struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// PoolStats reports dedcd's job workers: how many there are, how many are
// idle, and how many attempts they started and how each ended.
type PoolStats struct {
	Workers   int   `json:"workers"`
	Idle      int   `json:"idle"` // workers not running an attempt
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Panics    int64 `json:"panics"`
}

// CacheStats reports the daemon's content-addressed circuit/ATPG cache on
// /v1/stats: occupancy against the -cache-bytes budget and lifetime
// hit/miss/eviction counts (HitRate = hits/(hits+misses), 0 when unused).
type CacheStats struct {
	Entries   int64   `json:"entries"`
	Bytes     int64   `json:"bytes"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// Stats is the GET /v1/stats payload: a one-shot daemon summary for
// monitoring scrapes that want structure rather than the Prometheus text on
// /metrics.
type Stats struct {
	TS       time.Time            `json:"ts"`
	Jobs     map[string]int       `json:"jobs"` // per-state retained job counts
	Pool     PoolStats            `json:"pool"`
	Counters map[string]int64     `json:"counters,omitempty"` // daemon counters (submissions, sheds, requeues, ...)
	Phases   map[string]Quantiles `json:"phases,omitempty"`   // queue_wait/attempt/e2e latency, nanoseconds
	Cache    CacheStats           `json:"cache"`              // content-addressed parse/ATPG cache
}
