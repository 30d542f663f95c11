package sat

import "dedc/internal/circuit"

// EncodeCircuit Tseitin-encodes the circuit into the solver, returning one
// literal per line. piVars supplies shared input variables (positional, one
// per c.PIs entry). With act >= 0 every emitted clause is gated on the
// activation literal — it only constrains models where act holds, so the
// whole group can later be retired by asserting act.Neg(). constTrue shares
// the one global constant-true variable across encodes into the same solver
// (pass a literal set to -1 the first time); its defining unit clause is
// never gated. BUF, NOT and DFF cost no variable: they reuse (or negate)
// their fanin's literal, so DFF is treated as BUF, as in simulation.
func EncodeCircuit(s *Solver, c *circuit.Circuit, piVars []int, act Lit, constTrue *Lit) []Lit {
	e := encoder{s: s, act: act}
	lits := make([]Lit, c.NumLines())
	for i, pi := range c.PIs {
		lits[pi] = MkLit(piVars[i], true)
	}
	getTrue := func() Lit {
		if *constTrue == -1 {
			*constTrue = MkLit(s.NewVar(), true)
			s.AddClause(*constTrue)
		}
		return *constTrue
	}
	var ins []Lit
	for _, l := range c.Topo() {
		g := &c.Gates[l]
		switch g.Type {
		case circuit.Input:
			continue
		case circuit.Const0:
			lits[l] = getTrue().Neg()
			continue
		case circuit.Const1:
			lits[l] = getTrue()
			continue
		case circuit.Buf, circuit.DFF:
			lits[l] = lits[g.Fanin[0]]
			continue
		case circuit.Not:
			lits[l] = lits[g.Fanin[0]].Neg()
			continue
		}
		out := MkLit(s.NewVar(), true)
		ins = ins[:0]
		for _, f := range g.Fanin {
			ins = append(ins, lits[f])
		}
		switch g.Type {
		case circuit.And, circuit.Nand:
			o := out
			if g.Type == circuit.Nand {
				o = out.Neg()
			}
			// o <-> AND(ins)
			for _, in := range ins {
				e.add(o.Neg(), in) // o -> in
			}
			e.buf = append(e.buf[:0], o)
			for _, in := range ins {
				e.buf = append(e.buf, in.Neg())
			}
			e.emit() // all ins -> o
		case circuit.Or, circuit.Nor:
			o := out
			if g.Type == circuit.Nor {
				o = out.Neg()
			}
			for _, in := range ins {
				e.add(o, in.Neg()) // in -> o
			}
			e.buf = append(e.buf[:0], o.Neg())
			for _, in := range ins {
				e.buf = append(e.buf, in)
			}
			e.emit() // o -> some in
		case circuit.Xor, circuit.Xnor:
			// Chain binary XORs.
			acc := ins[0]
			for i := 1; i < len(ins); i++ {
				var t Lit
				if i == len(ins)-1 {
					t = out
					if g.Type == circuit.Xnor {
						t = out.Neg()
					}
				} else {
					t = MkLit(s.NewVar(), true)
				}
				b := ins[i]
				// t <-> acc XOR b
				e.add(t.Neg(), acc, b)
				e.add(t.Neg(), acc.Neg(), b.Neg())
				e.add(t, acc, b.Neg())
				e.add(t, acc.Neg(), b)
				acc = t
			}
		default:
			panic("sat: cannot encode gate type " + g.Type.String())
		}
		lits[l] = out
	}
	return lits
}

// encoder emits (optionally gated) clauses through one reused buffer, so an
// encode allocates only what the solver keeps.
type encoder struct {
	s   *Solver
	act Lit
	buf []Lit
}

// add emits one clause; emit sends the clause already built in buf.
func (e *encoder) add(lits ...Lit) {
	e.buf = append(e.buf[:0], lits...)
	e.emit()
}

func (e *encoder) emit() {
	if e.act >= 0 {
		e.buf = append(e.buf, e.act.Neg())
	}
	e.s.AddClause(e.buf...)
}
