// Package equiv implements SAT-based formal equivalence checking of
// combinational netlists: the two circuits are Tseitin-encoded into CNF, a
// miter ORs the XORs of corresponding outputs, and a SAT solver decides
// whether any input distinguishes them. A Sat verdict yields a
// counterexample input vector; Unsat is a proof of equivalence.
//
// This is the library's formal upgrade over vector-based Equivalent checks:
// diagnose.RepairProven uses it in a counterexample-guided loop.
package equiv

import (
	"context"

	"dedc/internal/circuit"
)

// Result is an equivalence verdict.
type Result struct {
	Equivalent bool
	// Counterexample assigns each PI (by position) a distinguishing value
	// when Equivalent is false.
	Counterexample []bool
	// Aborted is set when the solver hit its conflict budget or was
	// cancelled (verdict unreliable: treated as "not proven").
	Aborted bool
	// Cancelled is set when the abort came from context cancellation.
	Cancelled bool

	Conflicts int64
	Decisions int64
}

// Options bounds the SAT search.
type Options struct {
	// MaxConflicts aborts the proof attempt (0 = unlimited).
	MaxConflicts int64
	// Ctx, when non-nil, lets the caller cancel the proof mid-search; the
	// result comes back with Aborted and Cancelled set.
	Ctx context.Context
}

// Check decides whether circuits a and b are functionally equivalent. Both
// must be combinational with equal PI and PO counts (positional
// correspondence, as everywhere in this library). One-shot callers get a
// fresh solver per call; callers that check many candidates against one
// reference should hold a Session instead and let learnt clauses carry
// across checks.
func Check(a, b *circuit.Circuit, opt Options) (*Result, error) {
	ss, err := NewSession(a)
	if err != nil {
		return nil, err
	}
	return ss.Check(b, opt)
}
