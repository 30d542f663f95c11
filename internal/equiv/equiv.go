// Package equiv decides functional equivalence of combinational netlists,
// by exhaustive simulation or by SAT. Narrow circuits (few primary inputs)
// are first simulated over every input pattern, 64 patterns to a word; when
// no output differs that simulation is the proof. Otherwise the two circuits
// are Tseitin-encoded into CNF, a miter ORs the XORs of corresponding
// outputs, and a SAT solver decides whether any input distinguishes them. A
// Sat verdict yields a counterexample input vector; Unsat is a proof of
// equivalence. Counterexamples always come from the solver, so they do not
// depend on whether a simulation ran first.
//
// This is the library's formal upgrade over vector-based Equivalent checks:
// diagnose.RepairProven uses it in a counterexample-guided loop.
package equiv

import (
	"context"

	"dedc/internal/circuit"
)

// Method names the procedure a check chose to decide a Result.
type Method uint8

const (
	// MethodSAT: the miter went to the SAT solver. Conflicts and Decisions
	// count its search; an Unsat answer with 0 conflicts is a proof by
	// unit propagation.
	MethodSAT Method = iota
	// MethodSimulation: simulation over every input pattern found no
	// output that differs. No solver ran, so Conflicts and Decisions are 0.
	MethodSimulation
)

// String returns "sat" or "simulation".
func (m Method) String() string {
	if m == MethodSimulation {
		return "simulation"
	}
	return "sat"
}

// Result is an equivalence verdict.
type Result struct {
	// Method is the procedure the check chose. Inequivalence is always
	// decided by SAT, which supplies the counterexample.
	Method     Method
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
	// MaxConflicts aborts the SAT proof attempt (0 = unlimited). A proof by
	// exhaustive simulation is not bounded by it.
	MaxConflicts int64
	// Ctx, when non-nil, lets the caller cancel the proof mid-search; the
	// result comes back with Aborted and Cancelled set. A check that starts
	// with Ctx already cancelled returns that result at once.
	Ctx context.Context
}

// Check decides whether circuits a and b are functionally equivalent, by
// exhaustive simulation when a is narrow enough and otherwise, or when the
// outputs differ, by SAT (see Session). Both must be combinational with
// equal PI and PO counts (positional correspondence, as everywhere in this
// library). One-shot callers get a fresh session per call; callers that
// check many candidates against one reference should hold a Session
// instead, so the reference is encoded and simulated once and learnt
// clauses carry across checks.
func Check(a, b *circuit.Circuit, opt Options) (*Result, error) {
	ss, err := NewSession(a)
	if err != nil {
		return nil, err
	}
	return ss.Check(b, opt)
}
