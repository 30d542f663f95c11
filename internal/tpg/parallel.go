package tpg

import (
	"context"
	"sync"
	"sync/atomic"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/telemetry"
)

// genOutcome is one per-fault Generate result, slotted by fault index so the
// fold in BuildVectorsContext reassembles outcomes in original fault order
// regardless of which worker produced them — the worker-count-parity
// contract (w1 and wN vector sets are bit-identical) depends on it.
type genOutcome struct {
	done   bool // Generate ran to a verdict (false = skipped on cancellation)
	assign []v3
	result PodemResult
}

// generateAll runs one PODEM Generate per fault and returns the outcomes in
// fault order, the total backtrack and gate-evaluation counts, and whether the
// pass was cut short by cancellation (some fault never reached a verdict).
//
// With opt.Workers < 2 this is the exact legacy sequential loop: one
// generator instance, faults in order, a context poll between faults. With
// opt.Workers >= 2 the faults are claimed by atomic index from Workers
// goroutines (the caller's goroutine is worker 0), each with its own Podem
// and scratch over shared read-only guidance tables. Per-fault searches are
// independent — each Generate starts from a clean assignment and the
// backtrack limit is per fault — so the outcome slots are identical at any
// worker count; only wall-clock and the partial-result shape under
// cancellation vary (the sequential loop stops on a prefix, workers stop
// mid-flight wherever the claim counter stood).
func generateAll(ctx context.Context, c *circuit.Circuit, faults []fault.Fault, opt Options, tr *telemetry.Tracer) ([]genOutcome, int64, int64, bool) {
	outs := make([]genOutcome, len(faults))
	cBacktracks := tr.Registry().Counter("tpg.backtracks", "PODEM backtracks during deterministic test generation.")
	cEvals := tr.Registry().Counter("tpg.evals", "Gate evaluations made by PODEM implication.")
	workers := opt.Workers
	if workers > len(faults) {
		workers = len(faults)
	}

	newGen := func(t *podemTables) *Podem {
		p := newPodemWith(c, t)
		p.Ctx = ctx
		p.CBacktracks = cBacktracks
		p.CEvals = cEvals
		if opt.BacktrackLimit > 0 {
			p.BacktrackLimit = opt.BacktrackLimit
		}
		return p
	}

	if workers < 2 {
		p := newGen(newPodemTables(c))
		cancelled := false
		for i, f := range faults {
			if ctx.Err() != nil {
				cancelled = true
				break
			}
			assign, outcome := p.Generate(f)
			outs[i] = genOutcome{done: true, assign: assign, result: outcome}
		}
		return outs, p.Backtracks, p.Evals, cancelled
	}

	// Build the guidance tables (and with them every lazily derived
	// structure of the circuit) once on this goroutine; after this point
	// workers only read them and the circuit.
	tables := newPodemTables(c)
	cTrials := tr.Registry().Counter("tpg.pool.trials", "Per-fault PODEM generations dispatched by the fault-parallel driver.")

	var (
		next     atomic.Int64
		stop     atomic.Bool
		btTotal  atomic.Int64
		evTotal  atomic.Int64
		panicked atomic.Pointer[any]
	)
	work := func() {
		p := newGen(tables)
		defer func() {
			btTotal.Add(p.Backtracks)
			evTotal.Add(p.Evals)
		}()
		for !stop.Load() {
			i := int(next.Add(1) - 1)
			if i >= len(faults) {
				return
			}
			if ctx.Err() != nil {
				stop.Store(true)
				return
			}
			cTrials.Inc()
			assign, outcome := p.Generate(faults[i])
			outs[i] = genOutcome{done: true, assign: assign, result: outcome}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
					stop.Store(true)
				}
			}()
			work()
		}()
	}
	work() // caller participates as worker 0
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
	cancelled := false
	for i := range outs {
		if !outs[i].done {
			cancelled = true
			break
		}
	}
	return outs, btTotal.Load(), evTotal.Load(), cancelled
}
