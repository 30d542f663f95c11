// Package telemetry is the zero-dependency observability layer of the
// diagnosis stack: hierarchical spans carried via context.Context, typed
// counters/gauges/histograms in a process-wide registry with a Prometheus
// text export, a structured JSONL run journal, and profiling
// hooks (CPU/heap/trace files plus pprof labels on span boundaries).
//
// The disabled state is the default and costs ~nothing: a nil *Tracer,
// *Counter, *Gauge, *Histogram or *Span no-ops on every method without
// allocating, so engine code can hold telemetry handles unconditionally and
// pay one predictable branch on the hot path. Enabling telemetry is a
// per-run decision made by whoever owns the context (typically a CLI flag).
package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. A nil *Counter is the
// disabled form: Add and Inc are no-ops, Value reports 0.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta. Negative deltas are ignored so
// counters stay monotone even under caller bugs.
func (c *Counter) Add(delta int64) {
	if c == nil || delta <= 0 {
		return
	}
	c.v.Add(delta)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins metric. A nil *Gauge no-ops.
type Gauge struct{ v atomic.Int64 }

// Set records the current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the last recorded value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram aggregates int64 observations into power-of-two buckets:
// bucket i counts observations v with bits.Len64(v) == i (bucket 0 holds
// v <= 0). The layout trades resolution for lock-free constant-time updates,
// which is all the per-node phase timings and per-suspect score counts need.
// A nil *Histogram no-ops.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [65]atomic.Int64
}

// Observe records one value. Negative values are clamped to 0.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observation so far (0 when empty; observations are
// clamped to >= 0, so the zero start value is never wrong). Unlike Quantile
// it is exact, not a bucket upper edge.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile returns an upper bound of the q-quantile (q in [0,1]): the upper
// edge of the bucket holding the q·Count-th observation. Resolution is a
// factor of two — adequate for "which order of magnitude" questions.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := int64(q * float64(n))
	if target >= n {
		target = n - 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > target {
			if i == 0 {
				return 0
			}
			return (int64(1) << i) - 1
		}
	}
	return h.sum.Load()
}

// Registry is a named collection of metrics. Metrics are created on first
// lookup and live for the registry's lifetime. A nil *Registry returns nil
// (disabled) metrics from every lookup.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string
}

// NewRegistry returns an empty metric registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		help:     map[string]string{},
	}
}

// Default is the process-wide registry. Engine packages register their
// always-on metrics here; per-run tracers default to it.
var Default = NewRegistry()

// Counter returns the named counter, creating it if needed. An optional
// help string registers the metric's Prometheus # HELP text (first writer
// wins; metrics created without one get a default at exposition time).
func (r *Registry) Counter(name string, help ...string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	r.setHelpLocked(name, help)
	return c
}

// Gauge returns the named gauge, creating it if needed. An optional help
// string registers the metric's Prometheus # HELP text.
func (r *Registry) Gauge(name string, help ...string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	r.setHelpLocked(name, help)
	return g
}

// Histogram returns the named histogram, creating it if needed. An optional
// help string registers the metric's Prometheus # HELP text.
func (r *Registry) Histogram(name string, help ...string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	r.setHelpLocked(name, help)
	return h
}

// setHelpLocked records the first non-empty help string offered for name.
func (r *Registry) setHelpLocked(name string, help []string) {
	if len(help) > 0 && help[0] != "" && r.help[name] == "" {
		r.help[name] = help[0]
	}
}

// Snapshot returns the current value of every metric, keyed by name.
// Histograms appear as nested maps with count/sum/mean/p50/p90/p99/max.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name] = map[string]any{
			"count": h.Count(),
			"sum":   h.Sum(),
			"mean":  h.Mean(),
			"p50":   h.Quantile(0.5),
			"p90":   h.Quantile(0.9),
			"p99":   h.Quantile(0.99),
			"max":   h.Max(),
		}
	}
	return out
}
