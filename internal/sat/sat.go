// Package sat implements a compact CDCL (conflict-driven clause learning)
// SAT solver: two-watched-literal propagation, first-UIP clause learning,
// VSIDS-style activity ordering, phase saving and Luby restarts, and
// EncodeCircuit, the Tseitin encoding of a netlist. It backs the formal
// equivalence checking in package equiv, which upgrades the library's
// vector-based "repaired circuit matches the specification" checks into
// proofs (and produces counterexample vectors when they fail — the CEGAR
// loop of diagnose.RepairProven feeds those back into V), and the
// redundancy proof package tpg runs before PODEM.
package sat

import (
	"context"
	"fmt"

	"dedc/internal/telemetry"
)

// Lit is a literal: variable index shifted left once, LSB = negated.
// Variables are numbered from 0.
type Lit int32

// MkLit builds a literal for variable v (non-negated when pos).
func MkLit(v int, pos bool) Lit {
	l := Lit(v << 1)
	if !pos {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// Pos reports whether the literal is positive.
func (l Lit) Pos() bool { return l&1 == 0 }

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// String renders the literal (e.g. "x3" / "!x3").
func (l Lit) String() string {
	if l.Pos() {
		return fmt.Sprintf("x%d", l.Var())
	}
	return fmt.Sprintf("!x%d", l.Var())
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// Status is the solver verdict.
type Status int

// Solver verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

type clause struct {
	lits    []Lit
	learnt  bool
	act     float64
	deleted bool
}

// Solver is a CDCL SAT solver. Create with NewSolver, add clauses, Solve.
type Solver struct {
	clauses []*clause
	watches [][]*clause // watches[lit] = clauses watching lit

	assign  []lbool
	level   []int32
	reason  []*clause
	trail   []Lit
	trailLo []int32 // decision-level boundaries in trail
	qhead   int

	activity []float64
	varInc   float64
	order    *varHeap
	phase    []bool

	claInc   float64
	conflict bool
	unsatNow bool // empty clause added

	seen    []bool
	learnt  []Lit
	toClear []Lit
	addBuf  []Lit // AddClause scratch

	// Slabs behind newClause and watch.
	clauseSlab []clause
	litSlab    []Lit
	watchSlab  []*clause

	// nLearnt counts the live (learnt, not deleted) clauses in clauses: the
	// search adds one per learnt clause and reduceDB subtracts the ones it
	// deletes, so the per-conflict reduction check is O(1).
	nLearnt int

	// Stats (cumulative across Solve calls on a reused solver).
	Conflicts    int64
	Decisions    int64
	Propagations int64
	// Restarts counts Luby restarts (search re-entries after a spent
	// conflict budget), LearntKept the learnt clauses that survived
	// clause-database reductions.
	Restarts   int64
	LearntKept int64

	// Telemetry sinks for the stats above; nil (the default) no-ops. Solve
	// records the per-call deltas on return, so the CDCL inner loop never
	// touches an atomic. Wire with Instrument.
	CConflicts    *telemetry.Counter
	CDecisions    *telemetry.Counter
	CPropagations *telemetry.Counter
	CRestarts     *telemetry.Counter
	CLearntKept   *telemetry.Counter

	// instrReg remembers the registry Instrument last wired, making
	// re-registration on a long-lived (incremental) solver idempotent.
	instrReg *telemetry.Registry

	// MaxConflicts aborts the search with Unknown when a single Solve call
	// exceeds this many conflicts (0 = unlimited). The budget is per call,
	// not per solver lifetime, so an incremental session doesn't starve its
	// later checks on conflicts its earlier ones already paid for.
	MaxConflicts int64
	conflBase    int64 // Conflicts at the start of the current Solve

	// Ctx, when non-nil, is polled at bounded intervals during Solve;
	// cancellation or deadline expiry unwinds the search cleanly (trail
	// cancelled back to the root) and returns Unknown with Cancelled set.
	Ctx context.Context
	// Cancelled reports that the last Solve stopped on context
	// cancellation rather than a conflict budget.
	Cancelled bool

	ctxTick int // decisions since the last context poll
}

// ctxCheckInterval is how many decisions pass between context polls inside
// the CDCL loop. Conflicts are also polled at this granularity via the
// restart budget, which is always finite.
const ctxCheckInterval = 1024

// ctxDone polls the context at bounded intervals; forced skips the
// dampening (used at restart boundaries).
func (s *Solver) ctxDone(forced bool) bool {
	if s.Ctx == nil {
		return false
	}
	if !forced {
		s.ctxTick++
		if s.ctxTick < ctxCheckInterval {
			return false
		}
	}
	s.ctxTick = 0
	if s.Ctx.Err() != nil {
		s.Cancelled = true
		return true
	}
	return false
}

// NewSolver returns an empty solver with nVars variables.
func NewSolver(nVars int) *Solver {
	s := &Solver{varInc: 1, claInc: 1}
	s.grow(nVars)
	return s
}

func (s *Solver) grow(nVars int) {
	for len(s.assign) < nVars {
		s.assign = append(s.assign, lUndef)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, nil)
		s.activity = append(s.activity, 0)
		s.phase = append(s.phase, false)
		s.seen = append(s.seen, false)
		s.watches = append(s.watches, nil, nil)
	}
}

// NumVars returns the variable count.
func (s *Solver) NumVars() int { return len(s.assign) }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.grow(v + 1)
	return v
}

// AddClause adds a clause over the given literals. Returns false if the
// solver is already trivially unsatisfiable. On a reused solver the trail is
// first unwound to the root, so the top-level simplification below only ever
// sees root-level (proven) assignments — never leftovers of a previous Sat
// model.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsatNow {
		return false
	}
	if s.decisionLevel() > 0 {
		s.cancelUntil(0)
	}
	// Deduplicate and detect tautologies, in a scratch copy: only a clause
	// that survives is allocated.
	s.addBuf = append(s.addBuf[:0], lits...)
	out := s.addBuf[:0]
	for _, l := range s.addBuf {
		if int(l.Var()) >= s.NumVars() {
			s.grow(l.Var() + 1)
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Neg() {
				return true // tautology: trivially satisfied
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	// Top-level simplification against existing root assignments.
	kept := out[:0]
	for _, l := range out {
		switch s.value(l) {
		case lTrue:
			return true
		case lUndef:
			kept = append(kept, l)
		}
	}
	switch len(kept) {
	case 0:
		s.unsatNow = true
		return false
	case 1:
		if !s.enqueue(kept[0], nil) {
			s.unsatNow = true
			return false
		}
		if s.propagate() != nil {
			s.unsatNow = true
			return false
		}
		return true
	}
	c := s.newClause(kept)
	s.attach(c)
	s.clauses = append(s.clauses, c)
	return true
}

// Problem clauses, and the first few entries of each watch list, are carved
// from chunks of slabChunk elements instead of allocated one by one. A chunk
// is never reallocated, so the pointers into it stay valid; a carved slice is
// capped, so appending to it moves it out of the chunk.
const slabChunk = 256

// newClause copies lits into a problem clause carved from the slabs.
func (s *Solver) newClause(lits []Lit) *clause {
	if len(s.clauseSlab) == cap(s.clauseSlab) {
		s.clauseSlab = make([]clause, 0, slabChunk)
	}
	if cap(s.litSlab)-len(s.litSlab) < len(lits) {
		s.litSlab = make([]Lit, 0, max(4*slabChunk, len(lits)))
	}
	n := len(s.litSlab)
	s.litSlab = append(s.litSlab, lits...)
	s.clauseSlab = append(s.clauseSlab, clause{lits: s.litSlab[n:len(s.litSlab):len(s.litSlab)]})
	return &s.clauseSlab[len(s.clauseSlab)-1]
}

func (s *Solver) attach(c *clause) {
	s.watch(c.lits[0].Neg(), c)
	s.watch(c.lits[1].Neg(), c)
}

// watch appends c to l's watch list, carving a list's first watchCap
// entries from the slab.
func (s *Solver) watch(l Lit, c *clause) {
	const watchCap = 4
	if cap(s.watches[l]) == 0 {
		if cap(s.watchSlab)-len(s.watchSlab) < watchCap {
			s.watchSlab = make([]*clause, 0, watchCap*slabChunk)
		}
		n := len(s.watchSlab)
		s.watchSlab = s.watchSlab[:n+watchCap]
		s.watches[l] = s.watchSlab[n : n : n+watchCap]
	}
	s.watches[l] = append(s.watches[l], c)
}

func (s *Solver) value(l Lit) lbool {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Pos() == (v == lTrue) {
		return lTrue
	}
	return lFalse
}

func (s *Solver) enqueue(l Lit, from *clause) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	if l.Pos() {
		s.assign[l.Var()] = lTrue
	} else {
		s.assign[l.Var()] = lFalse
	}
	s.level[l.Var()] = int32(len(s.trailLo))
	s.reason[l.Var()] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate runs unit propagation; returns a conflicting clause or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		ws := s.watches[l]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			if c.deleted {
				continue
			}
			// Ensure the false literal is lits[1].
			if c.lits[0] == l.Neg() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflicting.
			kept = append(kept, c)
			if !s.enqueue(c.lits[0], c) {
				// Conflict: keep remaining watches and report.
				kept = append(kept, ws[i+1:]...)
				s.watches[l] = kept
				return c
			}
		}
		s.watches[l] = kept
	}
	return nil
}

func (s *Solver) decisionLevel() int { return len(s.trailLo) }

func (s *Solver) newDecisionLevel() {
	s.trailLo = append(s.trailLo, int32(len(s.trail)))
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	lo := int(s.trailLo[lvl])
	for i := len(s.trail) - 1; i >= lo; i-- {
		l := s.trail[i]
		s.phase[l.Var()] = l.Pos()
		s.assign[l.Var()] = lUndef
		s.reason[l.Var()] = nil
		s.order.push(l.Var())
	}
	s.trail = s.trail[:lo]
	s.trailLo = s.trailLo[:lvl]
	s.qhead = len(s.trail)
}

// analyze performs first-UIP learning; returns the learnt clause (UIP
// first) and the backjump level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	s.learnt = s.learnt[:0]
	s.learnt = append(s.learnt, 0) // placeholder for UIP
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		for _, q := range confl.lits {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.toClear = append(s.toClear, q)
				s.bumpVar(v)
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					s.learnt = append(s.learnt, q)
				}
			}
		}
		// Pick next literal from trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		pathC--
		s.seen[p.Var()] = false
		if pathC == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	s.learnt[0] = p.Neg()

	// Backjump level = max level among the other literals.
	bj := 0
	swapIdx := 1
	for i := 1; i < len(s.learnt); i++ {
		if int(s.level[s.learnt[i].Var()]) > bj {
			bj = int(s.level[s.learnt[i].Var()])
			swapIdx = i
		}
	}
	if len(s.learnt) > 1 {
		s.learnt[1], s.learnt[swapIdx] = s.learnt[swapIdx], s.learnt[1]
	}
	for _, q := range s.toClear {
		s.seen[q.Var()] = false
	}
	s.toClear = s.toClear[:0]
	out := append([]Lit(nil), s.learnt...)
	return out, bj
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	if !c.learnt {
		return
	}
	c.act += s.claInc
	if c.act > 1e20 {
		for _, cl := range s.clauses {
			if cl.learnt {
				cl.act *= 1e-20
			}
		}
		s.claInc *= 1e-20
	}
}

// luby returns the i-th element of the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// Solve searches under the given assumptions (may be empty). It returns Sat
// with the model retrievable via Value, Unsat, or Unknown when
// MaxConflicts was exceeded.
//
// A solver may be solved repeatedly, interleaved with AddClause and NewVar:
// learnt clauses, VSIDS activity and saved phases all persist, so later
// calls on the same formula family start from everything earlier calls
// discovered. SolveUnderAssumptions documents the contract incremental
// callers rely on.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if s.unsatNow {
		return Unsat
	}
	// Unwind a previous call's model before searching again: root-level
	// implications stay, everything above the root is re-derived under the
	// new assumptions.
	if s.decisionLevel() > 0 {
		s.cancelUntil(0)
	}
	s.Cancelled = false
	if s.ctxDone(true) {
		return Unknown
	}
	c0, d0, p0, r0, k0 := s.Conflicts, s.Decisions, s.Propagations, s.Restarts, s.LearntKept
	defer func() {
		s.CConflicts.Add(s.Conflicts - c0)
		s.CDecisions.Add(s.Decisions - d0)
		s.CPropagations.Add(s.Propagations - p0)
		s.CRestarts.Add(s.Restarts - r0)
		s.CLearntKept.Add(s.LearntKept - k0)
	}()
	s.conflBase = s.Conflicts
	s.order = newVarHeap(s, s.order)
	restart := int64(0)
	learntCap := len(s.clauses)/3 + 100

	for {
		restart++
		if restart > 1 {
			s.Restarts++
		}
		budget := 64 * luby(restart)
		st := s.search(assumptions, budget, &learntCap)
		if st != Unknown {
			s.cancelUntilRoot(st)
			return st
		}
		s.cancelUntil(0)
		if s.Cancelled || s.MaxConflicts > 0 && s.Conflicts-s.conflBase >= s.MaxConflicts {
			return Unknown
		}
	}
}

// SolveUnderAssumptions is Solve with the incremental contract spelled out:
// the solver is reusable across calls, and everything a call learns — learnt
// clauses, VSIDS activity, saved phases, root-level implications — survives
// into the next one. Assumptions hold for this call only; the standard
// activation-literal pattern (gate a clause group on a fresh literal,
// assume it here, retire the group later with AddClause(act.Neg())) turns
// that into add/remove of whole constraint groups. package equiv's Session
// is the in-tree user.
func (s *Solver) SolveUnderAssumptions(assumptions ...Lit) Status {
	return s.Solve(assumptions...)
}

// Instrument wires the solver's per-Solve stat deltas to reg
// ("sat.conflicts", "sat.decisions", "sat.propagations", "sat.restarts",
// "sat.learnt_kept"). A nil registry detaches them again. Re-instrumenting
// with the registry already wired is a no-op, so long-lived incremental
// solvers can be instrumented once per check without double-wiring.
func (s *Solver) Instrument(reg *telemetry.Registry) {
	if reg != nil && reg == s.instrReg {
		return
	}
	s.instrReg = reg
	s.CConflicts = reg.Counter("sat.conflicts", "CDCL conflicts during SAT solving.")
	s.CDecisions = reg.Counter("sat.decisions", "CDCL branching decisions during SAT solving.")
	s.CPropagations = reg.Counter("sat.propagations", "Unit propagations during SAT solving.")
	s.CRestarts = reg.Counter("sat.restarts", "Luby restarts during SAT solving.")
	s.CLearntKept = reg.Counter("sat.learnt_kept", "Learnt clauses retained through clause-database reductions.")
}

// cancelUntilRoot preserves the model for Sat, unwinds for Unsat.
func (s *Solver) cancelUntilRoot(st Status) {
	if st == Unsat {
		s.cancelUntil(0)
	}
}

func (s *Solver) search(assumptions []Lit, budget int64, learntCap *int) Status {
	conflicts := int64(0)
	for {
		confl := s.propagate()
		if confl != nil {
			s.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				return Unsat
			}
			lits, bj := s.analyze(confl)
			s.cancelUntil(bj)
			if len(lits) == 1 {
				if !s.enqueue(lits[0], nil) {
					return Unsat
				}
			} else {
				c := &clause{lits: lits, learnt: true, act: s.claInc}
				s.attach(c)
				s.clauses = append(s.clauses, c)
				s.nLearnt++
				s.enqueue(lits[0], c)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if s.nLearnt > *learntCap {
				s.reduceDB()
				*learntCap += *learntCap / 10
			}
			continue
		}
		if conflicts >= budget {
			return Unknown
		}
		if s.MaxConflicts > 0 && s.Conflicts-s.conflBase >= s.MaxConflicts {
			return Unknown
		}
		if s.ctxDone(false) {
			return Unknown
		}
		// Assumptions first, then VSIDS decisions.
		next := Lit(-1)
		for _, a := range assumptions {
			switch s.value(a) {
			case lFalse:
				return Unsat // assumption conflicts with root implications
			case lUndef:
				next = a
			}
			if next != -1 {
				break
			}
		}
		if next == -1 {
			v := s.pickBranchVar()
			if v < 0 {
				return Sat
			}
			next = MkLit(v, s.phase[v])
		}
		s.Decisions++
		s.newDecisionLevel()
		s.enqueue(next, nil)
	}
}

// Validate recounts from scratch the live learnt-clause count the solver
// maintains incrementally (the search consults it after every conflict)
// and reports a disagreement. It is a consistency check for tests; the
// solver never calls it.
func (s *Solver) Validate() error {
	n := 0
	for _, c := range s.clauses {
		if c.learnt && !c.deleted {
			n++
		}
	}
	if n != s.nLearnt {
		return fmt.Errorf("sat: live learnt clauses: counter %d, recount %d", s.nLearnt, n)
	}
	return nil
}

// reduceDB discards the less active half of the learnt clauses (those not
// currently acting as reasons).
func (s *Solver) reduceDB() {
	var learnts []*clause
	for _, c := range s.clauses {
		if c.learnt && !c.deleted && !s.isReason(c) && len(c.lits) > 2 {
			learnts = append(learnts, c)
		}
	}
	if len(learnts) < 2 {
		return
	}
	// Median-activity split via simple selection.
	med := medianActivity(learnts)
	for _, c := range learnts {
		if c.act < med {
			c.deleted = true
			s.nLearnt--
		}
	}
	s.compact()
	s.LearntKept += int64(s.nLearnt)
}

func medianActivity(cs []*clause) float64 {
	acts := make([]float64, len(cs))
	for i, c := range cs {
		acts[i] = c.act
	}
	// Selection of the median without full sort (n is modest).
	k := len(acts) / 2
	lo, hi := 0, len(acts)-1
	for lo < hi {
		p := acts[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for acts[i] < p {
				i++
			}
			for acts[j] > p {
				j--
			}
			if i <= j {
				acts[i], acts[j] = acts[j], acts[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return acts[k]
}

func (s *Solver) isReason(c *clause) bool {
	if len(c.lits) == 0 {
		return false
	}
	v := c.lits[0].Var()
	return s.assign[v] != lUndef && s.reason[v] == c
}

// compact removes deleted clauses from the clause list and watch lists.
func (s *Solver) compact() {
	kept := s.clauses[:0]
	for _, c := range s.clauses {
		if !c.deleted {
			kept = append(kept, c)
		}
	}
	s.clauses = kept
	for i := range s.watches {
		ws := s.watches[i][:0]
		for _, c := range s.watches[i] {
			if !c.deleted {
				ws = append(ws, c)
			}
		}
		s.watches[i] = ws
	}
}

func (s *Solver) pickBranchVar() int {
	for s.order.len() > 0 {
		v := s.order.pop()
		if s.assign[v] == lUndef {
			return v
		}
	}
	return -1
}

// Value returns the model value of variable v after a Sat verdict.
func (s *Solver) Value(v int) bool { return s.assign[v] == lTrue }

// varHeap is a max-heap over variable activity with lazy membership.
type varHeap struct {
	s    *Solver
	heap []int32
	pos  []int32 // position in heap, -1 if absent
}

// newVarHeap fills a heap with every variable. It refills old in place when
// given one, so repeated Solve calls on one solver reuse its storage.
func newVarHeap(s *Solver, old *varHeap) *varHeap {
	h := old
	if h == nil {
		h = &varHeap{s: s}
	}
	h.heap = h.heap[:0]
	h.pos = h.pos[:0]
	for range s.NumVars() {
		h.pos = append(h.pos, -1)
	}
	for v := 0; v < s.NumVars(); v++ {
		h.push(v)
	}
	return h
}

func (h *varHeap) len() int { return len(h.heap) }

func (h *varHeap) less(i, j int) bool {
	return h.s.activity[h.heap[i]] > h.s.activity[h.heap[j]]
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.heap) {
			return
		}
		if c+1 < len(h.heap) && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

func (h *varHeap) push(v int) {
	for int(v) >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] != -1 {
		return
	}
	h.heap = append(h.heap, int32(v))
	h.pos[v] = int32(len(h.heap) - 1)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	h.swap(0, len(h.heap)-1)
	h.heap = h.heap[:len(h.heap)-1]
	h.pos[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return int(v)
}

func (h *varHeap) update(v int) {
	if h.pos[v] != -1 {
		h.up(int(h.pos[v]))
	}
}
