package equiv

import (
	"fmt"

	"dedc/internal/cache"
	"dedc/internal/circuit"
	"dedc/internal/sat"
	"dedc/internal/telemetry"
)

// sessionRebuildAfter bounds how many candidate groups a session encodes
// into one solver before rebuilding it from scratch. Retired groups stay in
// the clause database (satisfied by their negated activation literal but
// still walked by the watch lists), so a long-lived session would otherwise
// accrete dead clauses without bound.
const sessionRebuildAfter = 32

// Session is an incremental equivalence checker anchored to one reference
// circuit: the reference is Tseitin-encoded once into a persistent
// sat.Solver, and every Check encodes only the candidate — gated on a fresh
// activation literal — then solves under that single assumption
// (sat.SolveUnderAssumptions). Learnt clauses, VSIDS activity and saved
// phases survive across checks, so proving the same or a similar candidate
// again costs a fraction of a from-scratch miter proof; when a candidate is
// replaced, its whole clause group is retired by asserting the activation
// literal's negation.
//
// Two reuse levels fall out of the design:
//
//   - Same candidate structure again (fingerprint match): the existing group
//     is re-solved as-is. An Unsat verdict leaves the activation literal
//     root-falsified by the learnt clauses, so the re-proof is pure unit
//     propagation — the repeated-circuit fast path.
//   - New candidate against the same reference: the reference encoding and
//     everything learnt about it carry over; only the candidate cone is
//     encoded and searched fresh.
//
// A Session is not safe for concurrent use; give each goroutine its own.
type Session struct {
	spec *circuit.Circuit

	s         *sat.Solver
	piVars    []int
	specLits  []sat.Lit
	constTrue sat.Lit
	act       sat.Lit // current candidate group's activation literal (-1 = none)
	lastFP    string  // fingerprint of the encoded candidate
	encodes   int     // candidate groups since the last solver (re)build

	// Checks and Reused count Check calls and how many of them reused the
	// previous candidate encoding (fingerprint match).
	Checks int
	Reused int
}

// NewSession prepares an incremental checker against the given reference
// circuit, which must be combinational.
func NewSession(spec *circuit.Circuit) (*Session, error) {
	if spec.IsSequential() {
		return nil, fmt.Errorf("equiv: sequential circuits; scan-convert or unroll first")
	}
	ss := &Session{spec: spec}
	ss.build()
	return ss, nil
}

// build (re)creates the solver with the reference encoding only. Called at
// construction and whenever retired candidate groups have accreted past
// sessionRebuildAfter.
func (ss *Session) build() {
	ss.s = sat.NewSolver(0)
	ss.piVars = make([]int, len(ss.spec.PIs))
	for i := range ss.piVars {
		ss.piVars[i] = ss.s.NewVar()
	}
	ss.constTrue = -1
	ss.specLits = sat.EncodeCircuit(ss.s, ss.spec, ss.piVars, -1, &ss.constTrue)
	ss.act = -1
	ss.lastFP = ""
	ss.encodes = 0
}

// Check decides whether b is equivalent to the session's reference circuit,
// under the same contract as the package-level Check. Candidates sharing the
// previous call's structural fingerprint reuse its encoding outright.
func (ss *Session) Check(b *circuit.Circuit, opt Options) (*Result, error) {
	if b.IsSequential() {
		return nil, fmt.Errorf("equiv: sequential circuits; scan-convert or unroll first")
	}
	if len(ss.spec.PIs) != len(b.PIs) {
		return nil, fmt.Errorf("equiv: PI counts differ (%d vs %d)", len(ss.spec.PIs), len(b.PIs))
	}
	if len(ss.spec.POs) != len(b.POs) {
		return nil, fmt.Errorf("equiv: PO counts differ (%d vs %d)", len(ss.spec.POs), len(b.POs))
	}
	ss.Checks++
	fp := cache.Fingerprint(b)
	if fp != "" && fp == ss.lastFP && ss.act >= 0 {
		ss.Reused++
	} else {
		ss.encodeCandidate(b, fp)
	}

	s := ss.s
	s.MaxConflicts = opt.MaxConflicts
	s.Ctx = opt.Ctx
	if opt.Ctx != nil {
		s.Instrument(telemetry.FromContext(opt.Ctx).Registry())
	}
	c0, d0 := s.Conflicts, s.Decisions
	st := s.SolveUnderAssumptions(ss.act)
	res := &Result{Conflicts: s.Conflicts - c0, Decisions: s.Decisions - d0}
	switch st {
	case sat.Unsat:
		res.Equivalent = true
	case sat.Sat:
		res.Counterexample = make([]bool, len(ss.piVars))
		for i, v := range ss.piVars {
			res.Counterexample[i] = s.Value(v)
		}
	default:
		res.Aborted = true
		res.Cancelled = s.Cancelled
	}
	return res, nil
}

// encodeCandidate retires the current candidate group (if any), rebuilds the
// solver when it has accreted too many dead groups, then encodes b and the
// miter over a fresh activation literal.
func (ss *Session) encodeCandidate(b *circuit.Circuit, fp string) {
	if ss.act >= 0 {
		ss.s.AddClause(ss.act.Neg())
	}
	if ss.encodes >= sessionRebuildAfter {
		ss.build()
	}
	act := sat.MkLit(ss.s.NewVar(), true)
	bl := sat.EncodeCircuit(ss.s, b, ss.piVars, act, &ss.constTrue)

	// Miter: under act, the OR over outputs of (spec_po XOR b_po) must hold.
	diffs := make([]sat.Lit, 0, len(ss.spec.POs)+1)
	for i := range ss.spec.POs {
		la := ss.specLits[ss.spec.POs[i]]
		lb := bl[b.POs[i]]
		d := sat.MkLit(ss.s.NewVar(), true)
		ss.s.AddClause(d.Neg(), la, lb, act.Neg())
		ss.s.AddClause(d.Neg(), la.Neg(), lb.Neg(), act.Neg())
		ss.s.AddClause(d, la, lb.Neg(), act.Neg())
		ss.s.AddClause(d, la.Neg(), lb, act.Neg())
		diffs = append(diffs, d)
	}
	diffs = append(diffs, act.Neg())
	ss.s.AddClause(diffs...)

	ss.act = act
	ss.lastFP = fp
	ss.encodes++
}
