package tpg

import (
	"context"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/sat"
	"dedc/internal/sim"
)

// proofMaxConflicts caps the conflicts of each constant-line query of the
// redundancy proof. A query that reaches it leaves the line unproven, and
// the faults that needed it go to PODEM as before.
const proofMaxConflicts = 100

// prover decides, without search, that faults the random patterns missed are
// untestable. It proves lines of a combinational circuit constant with one
// incremental SAT solver, then applies two rules to each fault:
//
//   - Rule 1: a stuck-at-v fault on a line proven constant v is never
//     excited.
//   - Rule 2: a fault is never observed when every path from its site to a
//     primary output passes an AND/NAND/OR/NOR gate with a fanin outside the
//     fault's fanout cone proven at the gate's controlling value. That fanin
//     holds the same value in the faulty circuit, so the gate's output is
//     the same in both.
//
// Every fault either rule flags is untestable, so PODEM could only have
// returned Untestable or Aborted for it; neither adds a pattern or draws
// from the don't-care rng. See DESIGN.md "Redundancy proof before PODEM".
type prover struct {
	c      *circuit.Circuit
	fanout [][]circuit.Line
	isPO   []bool
	known  []int8 // proven constant value per line: 0, 1, or -1

	// Epoch-stamped scratch of the blocked-path search.
	stamp uint32
	cone  []uint32 // == stamp: line in the fault's fanout cone
	seen  []uint32 // == stamp: line reached by the path search
	work  []circuit.Line
}

// newProver proves constant the lines that hold one value on every pattern
// of e's fault-free simulation, in topological order: one query per
// candidate, assuming the opposite value. An Unsat verdict adds the value as
// a unit clause, so later queries build on it and on every clause learnt so
// far. The solver polls ctx, and a cancelled pass keeps what it proved.
func newProver(ctx context.Context, e *sim.Engine) *prover {
	c := e.C
	n := c.NumLines()
	p := &prover{
		c:      c,
		fanout: c.Fanout(),
		isPO:   make([]bool, n),
		known:  make([]int8, n),
		cone:   make([]uint32, n),
		seen:   make([]uint32, n),
	}
	for _, po := range c.POs {
		p.isPO[po] = true
	}
	for l := range p.known {
		p.known[l] = -1
	}
	type candidate struct {
		line circuit.Line
		val  int8
	}
	var cands []candidate
	for _, l := range c.Topo() {
		if c.Gates[l].Type == circuit.Input {
			continue
		}
		if v := constRow(e.BaseVal(l), e.N); v >= 0 {
			cands = append(cands, candidate{l, v})
		}
	}
	if len(cands) == 0 {
		return p
	}

	s := sat.NewSolver(0)
	piVars := make([]int, len(c.PIs))
	for i := range piVars {
		piVars[i] = s.NewVar()
	}
	constTrue := sat.Lit(-1)
	lits := sat.EncodeCircuit(s, c, piVars, -1, &constTrue)
	s.MaxConflicts = proofMaxConflicts
	s.Ctx = ctx
	for _, k := range cands {
		holds := lits[k.line] // the line carries the value it held throughout
		if k.val == 0 {
			holds = holds.Neg()
		}
		if s.Solve(holds.Neg()) == sat.Unsat {
			s.AddClause(holds)
			p.known[k.line] = k.val
		}
		if s.Cancelled {
			break
		}
	}
	return p
}

// constRow returns the value a row holds on all of its first n patterns, or
// -1 when it holds both.
func constRow(row []uint64, n int) int8 {
	w := sim.Words(n)
	tail := sim.TailMask(n)
	var or, and uint64 = 0, ^uint64(0)
	for j := 0; j < w; j++ {
		v := row[j]
		if j == w-1 {
			or |= v & tail
			and &= v | ^tail
		} else {
			or |= v
			and &= v
		}
	}
	switch {
	case or == 0:
		return 0
	case and == ^uint64(0):
		return 1
	}
	return -1
}

// untestable reports whether rule 1 or rule 2 proves f untestable.
func (p *prover) untestable(f fault.Fault) bool {
	if v := p.known[f.Line]; v >= 0 && (v == 1) == f.Value {
		return true
	}
	return !p.observable(f)
}

// observable reports whether some path from f's site reaches a primary
// output without passing a blocked gate (rule 2). For a branch fault the
// path starts at the reader, whose faulted pin never blocks: it carries the
// stuck value, not the line's.
func (p *prover) observable(f fault.Fault) bool {
	root, pin := f.Line, -1
	if !f.IsStem() {
		root, pin = f.Reader, f.Pin
	}
	p.stamp++
	if p.stamp == 0 { // epoch wrapped: old marks could alias the new one
		clear(p.cone)
		clear(p.seen)
		p.stamp = 1
	}
	p.cone[root] = p.stamp
	p.work = append(p.work[:0], root)
	for len(p.work) > 0 {
		x := p.work[len(p.work)-1]
		p.work = p.work[:len(p.work)-1]
		for _, r := range p.fanout[x] {
			if p.cone[r] != p.stamp {
				p.cone[r] = p.stamp
				p.work = append(p.work, r)
			}
		}
	}

	if pin >= 0 && p.blocked(root, pin) {
		return false
	}
	p.seen[root] = p.stamp
	p.work = append(p.work[:0], root)
	for len(p.work) > 0 {
		x := p.work[len(p.work)-1]
		p.work = p.work[:len(p.work)-1]
		if p.isPO[x] {
			return true
		}
		for _, r := range p.fanout[x] {
			if p.seen[r] != p.stamp {
				p.seen[r] = p.stamp
				if !p.blocked(r, -1) {
					p.work = append(p.work, r)
				}
			}
		}
	}
	return false
}

// blocked reports whether gate g has a fanin other than pin skip, outside
// the current fanout cone, proven at g's controlling value. Only AND, NAND,
// OR and NOR can block. A stem fault's root is never asked: the fault sits
// on its output, after its fanins.
func (p *prover) blocked(g circuit.Line, skip int) bool {
	var cv int8
	switch p.c.Gates[g].Type {
	case circuit.And, circuit.Nand:
		cv = 0
	case circuit.Or, circuit.Nor:
		cv = 1
	default:
		return false
	}
	for i, f := range p.c.Gates[g].Fanin {
		if i != skip && p.cone[f] != p.stamp && p.known[f] == cv {
			return true
		}
	}
	return false
}
