package diagnose

import (
	"time"

	"dedc/internal/sim"
)

// verifySolution is the verified-results gate: it re-proves a candidate
// solution with machinery independent of the search that produced it. The
// corrections are applied to a fresh clone of the pristine netlist and the
// result is re-simulated from scratch — no incremental engine, no trial
// values — over the same vector set in reversed order. Reordering the
// patterns means a bookkeeping bug that happens to be consistent between the
// search's base simulation and its trial propagations still cannot slip an
// unproven tuple through: the gate's word layout shares nothing with the
// engine's. The reversal is word-level (sim.ReversePatterns) and is redone
// for every solution rather than cached, so it always reflects the run's
// current vector set and reference outputs. Its wall time is charged to
// Stats.VerifyTime.
func (r *runState) verifySolution(corrs []Correction) bool {
	defer func(t0 time.Time) { r.res.Stats.VerifyTime += time.Since(t0) }(time.Now())
	ckt := r.base.Clone()
	for _, c := range corrs {
		if c.Apply(ckt) != nil {
			return false
		}
	}
	pi := sim.ReversePatterns(r.pi, r.n)
	spec := sim.ReversePatterns(r.specOut, r.n)
	r.res.Stats.Simulations++
	// SimulateParallel shards the pattern words across workers; per-pattern
	// values are independent, so the result matches Simulate bit for bit and
	// the gate stays as independent of the search machinery as before.
	val := sim.SimulateParallel(ckt, pi, r.n, r.opt.Workers)
	for i, po := range ckt.POs {
		if !sim.EqualRows(val[po], spec[i], r.n) {
			return false
		}
	}
	return true
}
