package diagnose

import (
	"sync/atomic"
	"time"

	"dedc/internal/circuit"
	"dedc/internal/sim"
)

// minParallelItems is the smallest fan-out worth spinning the pool for:
// below it, goroutine hand-off costs more than the trials themselves.
const minParallelItems = 8

// useParallel reports whether a fan-out of n items should run on the engine
// pool. The answer never changes results — only which code path computes
// them — because parallel fan-outs merge by item index.
func (r *runState) useParallel(n int) bool {
	return r.pool != nil && r.parOK && !r.halted && n >= minParallelItems
}

// bindPool points the pool at the current node's engine. Nodes are expanded
// one at a time, so one bind per engine suffices; rebinding reuses the
// workers' scratch slabs.
func (r *runState) bindPool(e *sim.Engine) {
	if r.poolBound != e {
		r.pool.Bind(e)
		r.poolBound = e
	}
}

// poolStop builds the worker-safe stop predicate for one fan-out: it polls
// only the context and the wall-clock deadline (the counted budgets are
// excluded by parOK) and touches no runState fields, so any worker may call
// it concurrently. The caller folds the actual halt status on the main
// goroutine afterwards (stopNow), mirroring how the sequential loops record
// why they unwound.
func (r *runState) poolStop() func() bool {
	ctx, deadline := r.ctx, r.deadline
	if ctx == nil && deadline.IsZero() {
		return nil
	}
	var tick atomic.Int64
	var expired atomic.Bool
	return func() bool {
		if expired.Load() {
			return true
		}
		if tick.Add(1)%stopCheckInterval != 0 {
			return false
		}
		if ctx != nil && ctx.Err() != nil {
			expired.Store(true)
			return true
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			expired.Store(true)
			return true
		}
		return false
	}
}

// rankSuspectsParallel is the pooled heuristic-1 ranking: one trial per
// suspect on the Verr engine and its forks, sharded across workers,
// rectified-bit counts gathered by suspect index and folded in index order.
// An unclaimed index (stop fired first) stays at the -1 sentinel and is
// skipped, exactly like the sequential loop's early break.
func (r *runState) rankSuspectsParallel(ec *expandCtx, suspects []circuit.Line) []scoredLine {
	rects := make([]int32, len(suspects))
	for i := range rects {
		rects[i] = -1
	}
	r.bindPool(ec.verr.e)
	r.pool.Each(r.poolStop(), len(suspects), func(e *sim.Engine, w, i int) {
		rects[i] = int32(r.h1Trial(e, &r.ws[w], ec, suspects[i]))
	})
	r.stopNow() // fold a mid-fan-out cancellation/deadline into halt status
	var lines []scoredLine
	for i, l := range suspects {
		if rects[i] < 0 {
			continue
		}
		rect := int(rects[i])
		r.res.Stats.Simulations++
		r.hRect.Observe(int64(rect))
		if float64(rect) >= r.params.H1*float64(ec.errBits)-1e-9 {
			lines = append(lines, scoredLine{l, rect})
		}
	}
	return lines
}

// screenCorrectionsParallel is the pooled correction screen. The Theorem-1
// tests run on the calling goroutine — a few-word evaluation on the Verr
// engine, which rejects most candidates — and only the survivors' full-width
// trials fan out across the pool. Outcomes land in a slot per candidate
// index, and the fold walks the slots in enumeration order applying the
// same stats/ranking rule as the sequential loop.
func (r *runState) screenCorrectionsParallel(ec *expandCtx, work []Correction) []rankEntry {
	outs := make([]screenResult, len(work))
	stop := r.poolStop()
	var survivors []int
	for i, corr := range work {
		if stop != nil && stop() {
			break
		}
		if r.theorem1(ec.verr.e, &r.ws[0], ec, corr) {
			survivors = append(survivors, i)
		} else {
			outs[i].outcome = screenRejected
		}
	}
	r.bindPool(ec.full.e)
	r.pool.Each(stop, len(survivors), func(e *sim.Engine, w, k int) {
		i := survivors[k]
		outs[i] = r.screenTrial(e, &r.ws[w], ec, work[i])
	})
	r.stopNow() // fold a mid-fan-out cancellation/deadline into halt status
	var cands []rankEntry
	for i, corr := range work {
		sr := outs[i]
		if sr.outcome == screenNotRun {
			continue
		}
		r.res.Stats.Candidates++
		if done, rc := r.foldScreen(ec, corr, sr); done {
			cands = append(cands, rankEntry{rc: rc, idx: len(cands)})
		}
	}
	return cands
}
