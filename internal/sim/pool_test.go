package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/telemetry"
)

// poolCircuit builds a random circuit plus an engine over random patterns.
func poolCircuit(t *testing.T, seed int64, nGate, n int) (*circuit.Circuit, *Engine, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := randomCircuit(rng, 6, nGate)
	pi := RandomPatterns(len(c.PIs), n, rng.Int63())
	return c, NewEngine(c, pi, n), n
}

func TestEnginePoolEachCoversAllIndices(t *testing.T) {
	_, e, _ := poolCircuit(t, 1, 40, 256)
	for _, size := range []int{1, 2, 4, 8} {
		p := NewEnginePool(size)
		reg := telemetry.NewRegistry()
		p.Instrument(reg)
		p.Bind(e)
		const n = 97 // not a multiple of any pool size
		visits := make([]atomic.Int32, n)
		p.Each(nil, n, func(we *Engine, worker, i int) {
			if we == nil {
				t.Errorf("size %d: worker %d got nil engine", size, worker)
			}
			visits[i].Add(1)
		})
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("size %d: index %d visited %d times", size, i, got)
			}
		}
		if got := p.CTrials.Value(); got != n {
			t.Errorf("size %d: sim.pool.trials = %d, want %d", size, got, n)
		}
		if size == 1 && p.CSteals.Value() != 0 {
			t.Errorf("sequential pool recorded %d steals", p.CSteals.Value())
		}
	}
}

func TestEnginePoolEachStop(t *testing.T) {
	_, e, _ := poolCircuit(t, 2, 40, 256)
	for _, size := range []int{1, 4} {
		p := NewEnginePool(size)
		p.Bind(e)
		calls := atomic.Int32{}
		p.Each(func() bool { return true }, 1000, func(*Engine, int, int) {
			calls.Add(1)
		})
		if got := calls.Load(); got != 0 {
			t.Errorf("size %d: stop=true still ran %d items", size, got)
		}
	}
}

func TestEnginePoolPanicReraised(t *testing.T) {
	_, e, _ := poolCircuit(t, 3, 40, 256)
	for _, size := range []int{1, 4} {
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatalf("size %d: worker panic not re-raised", size)
				}
				if s, ok := v.(string); size > 1 && (!ok || !strings.Contains(s, "engine pool worker")) {
					t.Fatalf("size %d: unexpected panic value %v", size, v)
				}
			}()
			p := NewEnginePool(size)
			p.Bind(e)
			p.Each(nil, 50, func(_ *Engine, _, i int) {
				if i == 17 {
					panic("boom")
				}
			})
		}()
	}
}

// trialSignature runs one complement-forcing trial on line l and folds the
// outcome (changed-line set and the trial values it produced) into a hash —
// the per-item result the determinism comparison shards by index.
func trialSignature(e *Engine, l circuit.Line) uint64 {
	base := e.BaseVal(l)
	forced := make([]uint64, len(base))
	for i, w := range base {
		forced[i] = ^w
	}
	var h uint64 = 1469598103934665603
	for _, cl := range e.Trial(l, forced) {
		h = (h ^ uint64(cl)) * 1099511628211
		for _, w := range e.TrialVal(cl) {
			h = (h ^ w) * 1099511628211
		}
	}
	return h
}

// TestEnginePoolTrialHammer drives complement trials for every line across
// pool sizes, all workers reading the shared base-value matrix while running
// private trial propagation concurrently. Under -race this is the shared-
// state safety proof; the index-sharded signatures double as the
// bit-identity check against the sequential pool.
func TestEnginePoolTrialHammer(t *testing.T) {
	c, e, _ := poolCircuit(t, 4, 120, 512)
	n := c.NumLines()
	want := make([]uint64, n)
	seq := NewEnginePool(1)
	seq.Bind(e)
	seq.Each(nil, n, func(we *Engine, _, i int) {
		want[i] = trialSignature(we, circuit.Line(i))
	})
	for _, size := range []int{2, 3, 8} {
		p := NewEnginePool(size)
		p.Bind(e)
		for round := 0; round < 3; round++ {
			got := make([]uint64, n)
			p.Each(nil, n, func(we *Engine, worker, i int) {
				got[i] = trialSignature(we, circuit.Line(i))
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("size %d round %d: pooled trial results diverge from sequential", size, round)
			}
		}
	}
}

// TestEnginePoolRebind moves one pool across engines of different circuit
// shapes and across widths of one circuit, so the forks' scratch is both
// reused and grown; results must always match a fresh sequential engine on
// the current binding.
func TestEnginePoolRebind(t *testing.T) {
	c1, e1, _ := poolCircuit(t, 5, 80, 256)
	narrow := NewEngine(c1, RandomPatterns(len(c1.PIs), 100, 9), 100)
	c2, e2, _ := poolCircuit(t, 6, 150, 1024) // more lines and wider rows
	p := NewEnginePool(4)
	for round, e := range []*Engine{e1, narrow, e1, e2, e1} {
		p.Bind(e)
		ckt := e.C
		n := ckt.NumLines()
		want := make([]uint64, n)
		for i := 0; i < n; i++ {
			want[i] = trialSignature(e, circuit.Line(i))
		}
		got := make([]uint64, n)
		p.Each(nil, n, func(we *Engine, _, i int) {
			got[i] = trialSignature(we, circuit.Line(i))
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (%d lines): rebound pool diverges", round, n)
		}
	}
	_ = c2
}

func TestSimulateParallelMatchesSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		c := randomCircuit(rng, 5, 60)
		n := 64 * 32 // 32 words: enough for 4 workers at the 8-word floor
		pi := RandomPatterns(len(c.PIs), n, rng.Int63())
		want := Simulate(c, pi, n)
		for _, workers := range []int{0, 1, 2, 3, 4, 16} {
			got := SimulateParallel(c, pi, n, workers)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers %d: SimulateParallel diverges from Simulate", trial, workers)
			}
		}
	}
}

func TestSimulateParallelNarrowFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomCircuit(rng, 4, 30)
	n := 70 // 2 words: below the per-worker floor, must take the sequential path
	pi := RandomPatterns(len(c.PIs), n, rng.Int63())
	if got, want := SimulateParallel(c, pi, n, 8), Simulate(c, pi, n); !reflect.DeepEqual(got, want) {
		t.Fatal("narrow-batch fallback diverges from Simulate")
	}
}
