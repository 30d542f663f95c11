package diagnose

import (
	"context"
	"time"
)

// Status classifies how a search ended — the paper's "the search is
// abandoned when resource limits are exceeded" clause made explicit, so a
// caller can tell a proven-exhaustive answer from a truncated one and
// resume with a relaxed schedule or a larger budget.
type Status int

// Search outcomes.
const (
	// StatusComplete: the search ran to completion within its bounds. In
	// exact mode the returned tuples are all minimal explanations; with no
	// solutions the search space was exhausted without one.
	StatusComplete Status = iota
	// StatusFirstSolution: the search stopped at the first valid correction
	// set (non-exact / DEDC mode success).
	StatusFirstSolution
	// StatusTimedOut: the wall-clock budget (Budget.Time or a context
	// deadline) expired. Solutions found before expiry are retained.
	StatusTimedOut
	// StatusCancelled: the context was cancelled. Solutions found before
	// cancellation are retained.
	StatusCancelled
	// StatusBudgetExhausted: a counted resource budget (simulations, nodes
	// or candidates) ran out. Solutions found before exhaustion are
	// retained.
	StatusBudgetExhausted
)

func (s Status) String() string {
	switch s {
	case StatusComplete:
		return "Complete"
	case StatusFirstSolution:
		return "FirstSolution"
	case StatusTimedOut:
		return "TimedOut"
	case StatusCancelled:
		return "Cancelled"
	case StatusBudgetExhausted:
		return "BudgetExhausted"
	}
	return "Status(?)"
}

// Solved reports whether the search ended with at least the guarantee it
// was asked for (a complete traversal or a first solution), as opposed to
// being truncated by a resource limit.
func (s Status) Solved() bool {
	return s == StatusComplete || s == StatusFirstSolution
}

// Budget bounds the countable resources of one search. The zero value is
// unlimited. Counted budgets (as opposed to wall-clock ones) make truncated
// searches deterministic: the same netlist, vectors and budget always stop
// at the same point with the same partial result.
type Budget struct {
	// Time bounds wall-clock duration across all schedule steps.
	Time time.Duration
	// MaxSimulations bounds full-circuit simulations plus event-driven
	// trial propagations (Stats.Simulations).
	MaxSimulations int64
	// MaxNodes bounds decision-tree nodes expanded across all schedule
	// steps (Stats.Nodes). Unlike Options.MaxNodes it is a global cap, not
	// per schedule step.
	MaxNodes int64
	// MaxCandidates bounds correction candidates examined, i.e. enumerated
	// and at least Theorem-1 screened (Stats.Candidates).
	MaxCandidates int64
}

// Unlimited reports whether no budget dimension is set.
func (b Budget) Unlimited() bool {
	return b.Time == 0 && b.MaxSimulations == 0 && b.MaxNodes == 0 && b.MaxCandidates == 0
}

// stopCheckInterval is how many fine-grained work items (candidates,
// suspect trials) are processed between context/deadline polls. Checks at
// node granularity are unconditional.
const stopCheckInterval = 64

// halt records why the search stopped early. It is sticky: the first
// reason wins.
func (r *runState) halt(s Status) {
	if !r.halted {
		r.halted = true
		r.haltStatus = s
	}
}

// stop reports whether the search must unwind, polling (at bounded
// intervals) the context, the wall-clock deadline and the counted budgets.
// It is safe to call from any depth of the search.
func (r *runState) stop() bool {
	if r.halted {
		return true
	}
	r.checkTick++
	if r.checkTick < stopCheckInterval {
		// Counted budgets are cheap; poll them on every call so truncation
		// points stay deterministic regardless of wall-clock behaviour.
		return r.checkCounted()
	}
	r.checkTick = 0
	if r.ctx != nil {
		switch r.ctx.Err() {
		case context.DeadlineExceeded:
			r.halt(StatusTimedOut)
			return true
		case context.Canceled:
			r.halt(StatusCancelled)
			return true
		}
	}
	if !r.deadline.IsZero() && time.Now().After(r.deadline) {
		r.halt(StatusTimedOut)
		return true
	}
	return r.checkCounted()
}

// checkCounted polls only the deterministic counted budgets.
func (r *runState) checkCounted() bool {
	b := r.opt.Budget
	st := &r.res.Stats
	if b.MaxSimulations > 0 && st.Simulations >= b.MaxSimulations ||
		b.MaxNodes > 0 && int64(st.Nodes) >= b.MaxNodes ||
		b.MaxCandidates > 0 && st.Candidates >= b.MaxCandidates {
		r.halt(StatusBudgetExhausted)
		return true
	}
	return false
}

// stopNow is stop without the interval dampening: context and deadline are
// polled unconditionally. Used at coarse checkpoints (schedule steps, node
// expansions) where the poll cost is negligible.
func (r *runState) stopNow() bool {
	r.checkTick = stopCheckInterval
	return r.stop()
}
