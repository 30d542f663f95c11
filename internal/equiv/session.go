package equiv

import (
	"fmt"

	"dedc/internal/cache"
	"dedc/internal/circuit"
	"dedc/internal/sat"
	"dedc/internal/sim"
	"dedc/internal/telemetry"
)

// sessionRebuildAfter bounds how many candidate groups a session encodes
// into one solver before rebuilding it from scratch. Retired groups stay in
// the clause database (satisfied by their negated activation literal but
// still walked by the watch lists), so a long-lived session would otherwise
// accrete dead clauses without bound.
const sessionRebuildAfter = 32

// exhaustiveMaxPIs and exhaustiveMaxWords bound the exhaustive simulation
// that decides a check before SAT: the reference has at most
// exhaustiveMaxPIs inputs, and 2^PIs/64 words times the larger line count
// of the two circuits (the size of one value matrix) is at most
// exhaustiveMaxWords, 8 MB. BenchmarkProofMethods set them: within the
// bounds a simulated proof took 10 µs (8 PIs) to 5.4 ms (16 PIs, 1,016
// lines), and a SAT proof of the same circuit against its own clone, SAT's
// easiest equivalent candidate, took from 2 times as long on random logic
// to over 1,000 times on multipliers (16 inputs: 2.9 ms against 86 s). Past
// them simulation stops paying: at 20 PIs and 1,020 lines it took 85 ms and
// 134 MB against SAT's 25 ms. Simulating into a matrix the session keeps
// (exVal) later removed the per-check allocation: on a 2-CPU host rnd14
// went from 238 to 55 µs and the 20-PI case from 60 to 44 ms, against
// SAT's 18 ms there, so the bounds stand.
const (
	exhaustiveMaxPIs   = 16
	exhaustiveMaxWords = 1 << 20
)

// Session is an incremental equivalence checker anchored to one reference
// circuit. Each check is proved by exhaustive simulation or SAT:
//
//   - A reference with at most exhaustiveMaxPIs inputs (and a simulation
//     within exhaustiveMaxWords) is first compared over all 2^PIs input
//     patterns, 64 to a word. The reference's outputs over them are
//     simulated once and kept, so each candidate costs one simulation and
//     one output comparison. When no output differs that is the proof: the
//     result says MethodSimulation, and nothing is encoded into the solver,
//     so the proof adds no clauses, learnt or otherwise, to the session.
//   - Every other check, and every candidate whose outputs differ, goes to
//     SAT exactly as if the simulation had not run. Until a session's first
//     simulated proof, its counterexamples and solver state are those of a
//     SAT-only session; diagnose.RepairProven stops at its first proof.
//
// The SAT side is incremental: the reference is Tseitin-encoded once into a
// persistent sat.Solver, and every SAT check encodes only the candidate —
// gated on a fresh activation literal — then solves under that single
// assumption (sat.SolveUnderAssumptions). Learnt clauses, VSIDS activity and
// saved phases survive across checks, so proving the same or a similar
// candidate again costs a fraction of a from-scratch miter proof; when a
// candidate is replaced, its whole clause group is retired by asserting the
// activation literal's negation.
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

	// exPI holds the reference's exhaustive input patterns (exN of them)
	// and exOut its PO rows over them. All stay unset until the first check
	// that simulates. exVal is the value matrix every candidate is
	// simulated into, kept across checks.
	exPI  [][]uint64
	exN   int
	exOut [][]uint64
	exVal sim.Matrix

	// Checks counts Check calls, Reused how many of them reused the
	// previous candidate encoding (fingerprint match), and Simulated how
	// many were proved by exhaustive simulation without the solver.
	Checks    int
	Reused    int
	Simulated int
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
// previous SAT check's structural fingerprint reuse its encoding outright.
func (ss *Session) Check(b *circuit.Circuit, opt Options) (*Result, error) {
	return ss.check(b, opt, true)
}

// check is Check with the exhaustive simulation optional: simulate=false
// sends every check to SAT, which the package's tests use to keep the
// solver under test.
func (ss *Session) check(b *circuit.Circuit, opt Options, simulate bool) (*Result, error) {
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
	if simulate && ss.simulable(b) {
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			return &Result{Method: MethodSimulation, Aborted: true, Cancelled: true}, nil
		}
		if ss.sameOnAllInputs(b) {
			ss.Simulated++
			return &Result{Method: MethodSimulation, Equivalent: true}, nil
		}
	}
	return ss.solve(b, opt), nil
}

// simulable reports whether the reference and b are narrow and small enough
// to compare over every input pattern.
func (ss *Session) simulable(b *circuit.Circuit) bool {
	if len(ss.spec.PIs) > exhaustiveMaxPIs {
		return false
	}
	w := sim.Words(1 << len(ss.spec.PIs))
	return w*max(ss.spec.NumLines(), b.NumLines()) <= exhaustiveMaxWords
}

// sameOnAllInputs simulates b over every input pattern, into the matrix
// the session keeps, and compares its outputs with the reference's, which
// it simulates on first use and copies out of the matrix.
func (ss *Session) sameOnAllInputs(b *circuit.Circuit) bool {
	if ss.exOut == nil {
		ss.exPI, ss.exN, _ = sim.ExhaustivePatterns(len(ss.spec.PIs))
		w := sim.Words(ss.exN)
		val := ss.exVal.Rows(ss.spec.NumLines(), w)
		sim.SimulateInto(val, ss.spec, ss.exPI, ss.exN)
		ss.exOut = make([][]uint64, len(ss.spec.POs))
		slab := make([]uint64, len(ss.spec.POs)*w)
		for i, po := range ss.spec.POs {
			ss.exOut[i] = slab[i*w : (i+1)*w : (i+1)*w]
			copy(ss.exOut[i], val[po])
		}
	}
	val := ss.exVal.Rows(b.NumLines(), sim.Words(ss.exN))
	sim.SimulateInto(val, b, ss.exPI, ss.exN)
	for i, po := range b.POs {
		if !sim.EqualRows(val[po], ss.exOut[i], ss.exN) {
			return false
		}
	}
	return true
}

// solve decides the check by SAT under b's activation literal, encoding b
// first unless it repeats the previous candidate's structure.
func (ss *Session) solve(b *circuit.Circuit, opt Options) *Result {
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
	res := &Result{Method: MethodSAT, Conflicts: s.Conflicts - c0, Decisions: s.Decisions - d0}
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
	return res
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
