package telemetry

import "testing"

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty Histogram
	if got := empty.Quantile(0); got != 0 {
		t.Errorf("empty q=0: got %d, want 0", got)
	}
	if got := empty.Quantile(1); got != 0 {
		t.Errorf("empty q=1: got %d, want 0", got)
	}
	if got := empty.Max(); got != 0 {
		t.Errorf("empty max: got %d, want 0", got)
	}

	var single Histogram
	single.Observe(100)
	// 100 has bit length 7, so every quantile reports the bucket edge 127.
	for _, q := range []float64{0, 0.5, 1} {
		if got := single.Quantile(q); got != 127 {
			t.Errorf("single q=%v: got %d, want 127", q, got)
		}
	}
	if got := single.Max(); got != 100 {
		t.Errorf("single max: got %d, want 100", got)
	}

	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	// q=0 must land in the first non-empty bucket (value 1, edge 1).
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q=0: got %d, want 1", got)
	}
	if got := h.Quantile(1); got != 1023 {
		t.Errorf("q=1: got %d, want 1023", got)
	}
	if got := h.Max(); got != 1000 {
		t.Errorf("max: got %d, want 1000", got)
	}

	var zeros Histogram
	zeros.Observe(0)
	zeros.Observe(-5) // clamped to 0
	if got := zeros.Quantile(1); got != 0 {
		t.Errorf("zeros q=1: got %d, want 0", got)
	}
	if got := zeros.Max(); got != 0 {
		t.Errorf("zeros max: got %d, want 0", got)
	}

	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil q=0.5: got %d, want 0", got)
	}
	if got := nilH.Max(); got != 0 {
		t.Errorf("nil max: got %d, want 0", got)
	}
}

func TestSnapshotHistogramFields(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	snap := reg.Snapshot()
	m, ok := snap["lat"].(map[string]any)
	if !ok {
		t.Fatalf("snapshot lat = %T, want map", snap["lat"])
	}
	if m["p90"] != h.Quantile(0.9) {
		t.Errorf("p90 = %v, want %v", m["p90"], h.Quantile(0.9))
	}
	if m["max"] != int64(100) {
		t.Errorf("max = %v, want 100", m["max"])
	}
}

// populate fills a registry with one of everything, values chosen to
// exercise negatives, zero and histogram buckets.
func populate(reg *Registry) {
	reg.Counter("sim.trials").Add(42)
	reg.Counter("sat.conflicts").Add(7)
	reg.Gauge("search.depth").Set(-3)
	reg.Gauge("queue.len").Set(0)
	h := reg.Histogram("span.node.dur_ns")
	h.Observe(0)
	h.Observe(1500)
	h.Observe(3)
}
