package sim

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"dedc/internal/circuit"
	"dedc/internal/telemetry"
)

// EnginePool runs trial workloads across N worker Engines that share one
// read-only base simulation (value matrix, level table, fanout table) while
// owning private trial scratch, so trials proceed concurrently with zero
// locking on the hot path. Work is distributed by an atomic index counter:
// fast workers steal the items slow workers have not claimed yet, and the
// caller's goroutine itself serves as worker 0, so a pool of size 1 degrades
// to a plain sequential loop with no goroutines at all.
//
// The pool itself carries no result semantics — callers shard results by
// item index into pre-sized slices and reduce them in index order, which is
// what makes pooled runs bit-identical to sequential ones (see package
// diagnose).
//
// A pool is bound to one parent engine at a time via Bind and must not be
// used concurrently with itself; per-worker scratch is reused across Bind
// calls so moving the pool between engines of the same circuit shape is
// allocation-free after warm-up.
type EnginePool struct {
	size    int
	engines []*Engine // engines[0] is the bound parent; the rest are forks

	// Pool telemetry, nil (no-op) until Instrument is called.
	CBatches *telemetry.Counter // sim.pool.batches — Each invocations
	CTrials  *telemetry.Counter // sim.pool.trials — items dispatched through Each
	CSteals  *telemetry.Counter // sim.pool.steals — items claimed by helper workers
}

// NewEnginePool returns a pool of the given size (clamped to at least 1).
// Workers are materialized lazily on the first Bind.
func NewEnginePool(size int) *EnginePool {
	if size < 1 {
		size = 1
	}
	return &EnginePool{size: size, engines: make([]*Engine, size)}
}

// Size returns the worker count.
func (p *EnginePool) Size() int { return p.size }

// Instrument wires the pool counters to reg ("sim.pool.batches",
// "sim.pool.trials", "sim.pool.steals"). A nil registry detaches them.
func (p *EnginePool) Instrument(reg *telemetry.Registry) {
	p.CBatches = reg.Counter("sim.pool.batches")
	p.CTrials = reg.Counter("sim.pool.trials")
	p.CSteals = reg.Counter("sim.pool.steals")
}

// Bind points the pool at a parent engine: worker 0 runs on the parent
// itself, workers 1..size-1 on forks sharing its base state. Existing forks
// are rebound in place, reusing their scratch slabs (grown when the new
// engine is larger than any before). Bind also warms the parent circuit's derived tables (levels,
// fanout) on the calling goroutine so forks never race on lazy caches.
func (p *EnginePool) Bind(root *Engine) {
	p.engines[0] = root
	for i := 1; i < p.size; i++ {
		if p.engines[i] == nil {
			p.engines[i] = root.Fork()
		} else {
			p.engines[i].rebind(root)
		}
	}
}

// Each runs f(engine, worker, i) for every i in [0, n), distributing items
// across the pool's workers by atomic claim. The caller's goroutine
// participates as worker 0 on the bound parent engine; item order within a
// worker is ascending but interleaving across workers is arbitrary, so f
// must write results only to per-index or per-worker storage.
//
// stop, when non-nil, is polled between items on every worker and must be
// safe for concurrent use; once it returns true no further items are
// claimed (items already claimed still finish). A panic in f on any worker
// stops the fan-out and is re-raised on the caller's goroutine after all
// workers have quiesced, so supervision layers that recover caller panics
// keep working.
func (p *EnginePool) Each(stop func() bool, n int, f func(e *Engine, worker, i int)) {
	if n <= 0 {
		return
	}
	p.CBatches.Inc()
	k := p.size
	if k > n {
		k = n
	}
	if k <= 1 || p.size == 1 {
		e := p.engines[0]
		done := 0
		for i := 0; i < n; i++ {
			if stop != nil && stop() {
				break
			}
			f(e, 0, i)
			done++
		}
		p.CTrials.Add(int64(done))
		return
	}

	var (
		next    atomic.Int64
		stopped atomic.Bool
		panicAt atomic.Pointer[poolPanic]
		wg      sync.WaitGroup
	)
	body := func(worker int) {
		defer func() {
			if v := recover(); v != nil {
				panicAt.CompareAndSwap(nil, &poolPanic{worker: worker, value: v})
				stopped.Store(true)
			}
		}()
		e := p.engines[worker]
		done := 0
		for {
			if stopped.Load() || (stop != nil && stop()) {
				break
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			f(e, worker, i)
			done++
		}
		p.CTrials.Add(int64(done))
		if worker != 0 {
			p.CSteals.Add(int64(done))
		}
	}
	for w := 1; w < k; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Label the worker goroutine so CPU profiles attribute pool time
			// per worker (the journal stays worker-silent by design: workers
			// must not emit events or the journal would depend on the worker
			// count).
			pprof.Do(context.Background(), pprof.Labels("dedc.pool.worker", strconv.Itoa(worker)),
				func(context.Context) { body(worker) })
		}(w)
	}
	body(0)
	wg.Wait()
	if pp := panicAt.Load(); pp != nil {
		panic(fmt.Sprintf("sim: engine pool worker %d: %v", pp.worker, pp.value))
	}
}

type poolPanic struct {
	worker int
	value  any
}

// simParallelMinWords is the smallest word count per worker that makes
// sharding a batch simulation worthwhile; below it SimulateParallel falls
// back to the sequential Simulate.
const simParallelMinWords = 8

// SimulateParallel is Simulate with the pattern words sharded across
// workers: each worker runs the full topological walk over its own word
// range, so the result is bit-identical to Simulate for any worker count
// (per-pattern values never depend on other patterns). Narrow batches fall
// back to the sequential path.
func SimulateParallel(c *circuit.Circuit, pi [][]uint64, n, workers int) [][]uint64 {
	w := Words(n)
	if workers > w/simParallelMinWords {
		workers = w / simParallelMinWords
	}
	if workers <= 1 {
		return Simulate(c, pi, n)
	}
	val := make([][]uint64, c.NumLines())
	storage := make([]uint64, c.NumLines()*w)
	for i := range val {
		val[i] = storage[i*w : (i+1)*w]
	}
	for i, p := range c.PIs {
		copy(val[p], pi[i][:w])
	}
	topo := c.Topo() // warm the cache on the calling goroutine
	var wg sync.WaitGroup
	for sh := 0; sh < workers; sh++ {
		lo, hi := sh*w/workers, (sh+1)*w/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			scratch := make([][]uint64, 0, 8)
			for _, l := range topo {
				g := &c.Gates[l]
				if g.Type == circuit.Input {
					continue
				}
				scratch = scratch[:0]
				for _, f := range g.Fanin {
					scratch = append(scratch, val[f][lo:hi])
				}
				EvalGateInto(g.Type, val[l][lo:hi], hi-lo, scratch...)
			}
		}(lo, hi)
	}
	wg.Wait()
	return val
}
