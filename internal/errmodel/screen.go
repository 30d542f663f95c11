package errmodel

import (
	"math/bits"

	"dedc/internal/circuit"
	"dedc/internal/sim"
)

// Screen counts the Theorem-1 complement of the candidates at one target
// line: Complement(m) is popcount((row ^ base) & mask), where row is the
// value row NewValues gives for m and base the line's base row. AddWire and
// ReplaceWire, nearly all of a line's candidates, are counted with one fused
// word loop over rows Reset prepares from the line's base values, without
// building the candidate's row:
//
//   - AddWire of s onto an AND-like gate complements c & ^s, onto an
//     OR-like gate ^c & s, where c is the base row with the gate's output
//     inversion undone (the AND or OR of its fanins, or the single fanin
//     of a BUF/NOT target whose two-input type the wire restores);
//   - ReplaceWire of pin p by s complements sens_p & (s ^ in_p), where
//     sens_p marks the vectors at which pin p decides the output: the AND
//     of the other pins for AND/NAND, their NOR for OR/NOR, every vector
//     for XOR/XNOR and BUF/NOT.
//
// The loops assume the gate arities circuit.Validate accepts (one fanin
// for BUF/NOT). Every other kind is evaluated through NewValues. A Screen is reused
// line after line: Reset retargets it in its own storage.
type Screen struct {
	e    *sim.Engine
	l    circuit.Line
	cur  circuit.GateType // the target's current type
	mask []uint64

	// addAnd is c & mask and addOr ^c & mask. They are read only for the
	// AND/NAND, OR/NOR and BUF/NOT targets, whose added wire joins c.
	addAnd, addOr []uint64
	// sens[p] is sens_p & mask, one row per pin of the target.
	sens [][]uint64

	row  []uint64 // NewValues scratch for the other kinds
	slab []uint64 // backs row, addAnd, addOr and sens
	cone []uint64 // Walk's fanout-cone bitset
}

// Reset points s at line l of e's circuit, counting complements over the
// vectors in mask (e.W words). The rows s prepares read e's base values,
// so a later Reset or rebuild of e invalidates them.
func (s *Screen) Reset(e *sim.Engine, l circuit.Line, mask []uint64) {
	g := &e.C.Gates[l]
	w, nf := e.W, len(g.Fanin)
	s.e, s.l, s.cur, s.mask = e, l, g.Type, mask[:w:w]
	if need := (3 + nf) * w; cap(s.slab) < need {
		s.slab = make([]uint64, need)
	}
	carve := func(i int) []uint64 { return s.slab[i*w : (i+1)*w : (i+1)*w] }
	s.row, s.addAnd, s.addOr = carve(0), carve(1), carve(2)
	var inv uint64
	if g.Type.Inverting() {
		inv = ^uint64(0)
	}
	for i, b := range e.BaseVal(l)[:w] {
		c := b ^ inv
		s.addAnd[i] = c & s.mask[i]
		s.addOr[i] = ^c & s.mask[i]
	}
	s.sens = s.sens[:0]
	// Inputs and constants have no pins; XOR/XNOR and the one pin of a
	// BUF/NOT keep sens_p = mask.
	for p := range g.Fanin {
		sens := carve(3 + p)
		copy(sens, s.mask)
		switch g.Type {
		case circuit.And, circuit.Nand:
			for q, f := range g.Fanin {
				if q != p {
					andRow(sens, e.BaseVal(f))
				}
			}
		case circuit.Or, circuit.Nor:
			for q, f := range g.Fanin {
				if q != p {
					andNotRow(sens, e.BaseVal(f))
				}
			}
		}
		s.sens = append(s.sens, sens)
	}
}

// Complement returns popcount((row ^ base) & mask) for mod m, where row is
// m's NewValues row on the engine and base the screen line's base row. m
// must target the screen's line and be legal there (Check), as every
// candidate Walk yields is.
func (s *Screen) Complement(m Mod) int {
	switch m.Kind {
	case AddWire:
		switch m.addWireType(s.cur) {
		case circuit.And, circuit.Nand:
			return countAndNot(s.addAnd, s.e.BaseVal(m.Src))
		case circuit.Or, circuit.Nor:
			return countAnd(s.addOr, s.e.BaseVal(m.Src))
		}
	case ReplaceWire:
		in := s.e.BaseVal(s.e.C.Gates[s.l].Fanin[m.Pin])
		return countAndXor(s.sens[m.Pin], s.e.BaseVal(m.Src), in)
	}
	m.NewValues(s.e, s.row)
	base := s.e.BaseVal(s.l)[:len(s.row)]
	mask := s.mask[:len(s.row)]
	n := 0
	for i, x := range s.row {
		n += bits.OnesCount64((x ^ base[i]) & mask[i])
	}
	return n
}

// Walk is Walk at the screen's target line, keeping the fanout-cone bitset
// in the screen's storage.
func (s *Screen) Walk(wireSrcs []circuit.Line, yield func(Mod) bool) {
	s.cone = walk(s.e.C, s.l, wireSrcs, s.cone, yield)
}

// andRow sets dst to dst & a.
func andRow(dst, a []uint64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] &= a[i]
	}
}

// andNotRow sets dst to dst & ^a.
func andNotRow(dst, a []uint64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] &^= a[i]
	}
}

// countAndNot returns popcount(a & ^b).
func countAndNot(a, b []uint64) int {
	b = b[:len(a)]
	n := 0
	for i, x := range a {
		n += bits.OnesCount64(x &^ b[i])
	}
	return n
}

// countAnd returns popcount(a & b).
func countAnd(a, b []uint64) int {
	b = b[:len(a)]
	n := 0
	for i, x := range a {
		n += bits.OnesCount64(x & b[i])
	}
	return n
}

// countAndXor returns popcount(a & (b ^ c)).
func countAndXor(a, b, c []uint64) int {
	b, c = b[:len(a)], c[:len(a)]
	n := 0
	for i, x := range a {
		n += bits.OnesCount64(x & (b[i] ^ c[i]))
	}
	return n
}
