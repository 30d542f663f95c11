// Package errmodel implements the Abadir et al. design error model used by
// the paper's DEDC experiments: gate type replacement, extra/missing
// inverters on outputs and inputs, and extra/missing/wrong input wires.
// Every error (and every correction — the model is its own inverse) is a
// Mod: a change to the function of exactly one line. The package provides
//
//   - Apply: structural application of a Mod to a netlist,
//   - NewValues: the value row a Mod gives its target line, one local gate
//     evaluation over a sim.Engine's base values (the form the diagnosis
//     algorithm's screening tests consume),
//   - Walk: the correction candidates at a line, in the model's one
//     enumeration order (Enumerate collects them into a slice),
//   - Screen: the Theorem-1 complement count of the candidates at a line,
//     one word op per wire candidate instead of building its row,
//   - Inject: random error injection following the Campenhout-style type
//     frequency distribution, with observability guarantees.
//
// Extra-gate and missing-gate errors from the original ten-type model are
// approximated by compositions of the above (the paper's own experiments
// draw types from the distribution of design errors in [2], which is
// dominated by wire and gate-substitution errors); see DESIGN.md.
package errmodel

import (
	"fmt"

	"dedc/internal/circuit"
	"dedc/internal/sim"
)

// Kind enumerates modification kinds.
type Kind uint8

// Modification kinds. Names describe the applied change; as an error
// injection "ToggleOutInv" plays both the extra-inverter and
// missing-inverter roles (the model is symmetric under inversion).
const (
	GateReplace  Kind = iota // change gate type, fanins unchanged
	ToggleOutInv             // complement the gate's function (output inverter)
	ToggleInInv              // insert an inverter on one input pin
	AddWire                  // append a new input wire from Src
	RemoveWire               // delete input pin Pin
	ReplaceWire              // re-point input pin Pin at Src
	numKinds
)

var kindNames = [...]string{
	GateReplace:  "gate-replace",
	ToggleOutInv: "out-inv",
	ToggleInInv:  "in-inv",
	AddWire:      "add-wire",
	RemoveWire:   "rm-wire",
	ReplaceWire:  "wrong-wire",
}

// String returns the kind's report name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Mod is one modification of the function of line Line. The zero value is
// not meaningful.
//
// For AddWire on a single-input BUF/NOT target, NewType names the two-input
// gate type that the wire addition restores (a missing-input-wire error on a
// two-input gate leaves a BUF/NOT behind; the correction must reintroduce
// the gate). NewType must preserve the target's inversion and is Input
// (the zero value, meaning "unset") for AddWire on multi-input gates.
type Mod struct {
	Kind    Kind
	Line    circuit.Line     // target gate output line
	Pin     int              // pin for ToggleInInv / RemoveWire / ReplaceWire
	NewType circuit.GateType // for GateReplace, and AddWire on BUF/NOT
	Src     circuit.Line     // source for AddWire / ReplaceWire
}

// String renders the mod for reports.
func (m Mod) String() string {
	switch m.Kind {
	case GateReplace:
		return fmt.Sprintf("%s(L%d->%s)", m.Kind, int(m.Line), m.NewType)
	case ToggleOutInv:
		return fmt.Sprintf("%s(L%d)", m.Kind, int(m.Line))
	case ToggleInInv, RemoveWire:
		return fmt.Sprintf("%s(L%d.%d)", m.Kind, int(m.Line), m.Pin)
	case AddWire:
		if m.NewType != circuit.Input {
			return fmt.Sprintf("%s(L%d+=L%d as %s)", m.Kind, int(m.Line), int(m.Src), m.NewType)
		}
		return fmt.Sprintf("%s(L%d+=L%d)", m.Kind, int(m.Line), int(m.Src))
	case ReplaceWire:
		return fmt.Sprintf("%s(L%d.%d=L%d)", m.Kind, int(m.Line), m.Pin, int(m.Src))
	}
	return fmt.Sprintf("mod(%d)", int(m.Kind))
}

// Target returns the line whose function the mod changes.
func (m Mod) Target() circuit.Line { return m.Line }

// addWireType returns the gate type an AddWire mod evaluates with: the
// restored NewType for a BUF/NOT target, the current type otherwise.
func (m Mod) addWireType(cur circuit.GateType) circuit.GateType {
	if m.NewType != circuit.Input {
		return m.NewType
	}
	return cur
}

// invertedType returns the complement gate type; ok is false when the
// library has none (Input).
func invertedType(t circuit.GateType) (circuit.GateType, bool) {
	return t.InversionOf()
}

// Check reports whether the mod can legally be applied to c: target is a
// logic gate (not a PI or constant), pins are in range, wire sources exist
// and do not create a combinational cycle.
func (m Mod) Check(c *circuit.Circuit) error {
	if m.Line < 0 || int(m.Line) >= c.NumLines() {
		return fmt.Errorf("errmodel: target line %d out of range", m.Line)
	}
	g := &c.Gates[m.Line]
	if g.Type == circuit.Input || g.Type == circuit.Const0 || g.Type == circuit.Const1 {
		return fmt.Errorf("errmodel: cannot modify %s gate at line %d", g.Type, m.Line)
	}
	pinBased := m.Kind == ToggleInInv || m.Kind == RemoveWire || m.Kind == ReplaceWire
	if pinBased && (m.Pin < 0 || m.Pin >= len(g.Fanin)) {
		return fmt.Errorf("errmodel: pin %d out of range for line %d", m.Pin, m.Line)
	}
	switch m.Kind {
	case GateReplace:
		if !m.NewType.Valid() || m.NewType == circuit.Input || m.NewType == circuit.DFF ||
			m.NewType == circuit.Const0 || m.NewType == circuit.Const1 {
			return fmt.Errorf("errmodel: illegal replacement type %s", m.NewType)
		}
		if m.NewType == g.Type {
			return fmt.Errorf("errmodel: replacement type equals current type")
		}
		if min := m.NewType.MinFanin(); len(g.Fanin) < min {
			return fmt.Errorf("errmodel: %s needs %d fanins, gate has %d", m.NewType, min, len(g.Fanin))
		}
		if max := m.NewType.MaxFanin(); max >= 0 && len(g.Fanin) > max {
			return fmt.Errorf("errmodel: %s allows %d fanins, gate has %d", m.NewType, max, len(g.Fanin))
		}
	case ToggleOutInv:
		if _, ok := invertedType(g.Type); !ok {
			return fmt.Errorf("errmodel: no inverted counterpart for %s", g.Type)
		}
	case RemoveWire:
		if len(g.Fanin) < 2 {
			return fmt.Errorf("errmodel: cannot remove the only input of line %d", m.Line)
		}
	case AddWire, ReplaceWire:
		if m.Src < 0 || int(m.Src) >= c.NumLines() {
			return fmt.Errorf("errmodel: wire source %d out of range", m.Src)
		}
		if m.Src == m.Line {
			return fmt.Errorf("errmodel: self-loop wire")
		}
		if inFanoutCone(c, m.Line, m.Src) {
			return fmt.Errorf("errmodel: wire from L%d to L%d creates a cycle", m.Src, m.Line)
		}
		if m.Kind == AddWire {
			switch g.Type {
			case circuit.DFF:
				return fmt.Errorf("errmodel: cannot add an input to %s", g.Type)
			case circuit.Buf, circuit.Not:
				switch m.NewType {
				case circuit.And, circuit.Or, circuit.Xor, circuit.Nand, circuit.Nor, circuit.Xnor:
					if m.NewType.Inverting() != (g.Type == circuit.Not) {
						return fmt.Errorf("errmodel: AddWire type %s does not preserve %s inversion", m.NewType, g.Type)
					}
				default:
					return fmt.Errorf("errmodel: AddWire to %s requires a two-input gate type", g.Type)
				}
			default:
				if m.NewType != circuit.Input {
					return fmt.Errorf("errmodel: AddWire type change only applies to BUF/NOT targets")
				}
			}
		}
		if m.Kind == ReplaceWire && g.Fanin[m.Pin] == m.Src {
			return fmt.Errorf("errmodel: wire replacement is a no-op")
		}
	}
	return nil
}

// inFanoutCone reports whether x lies in the fanout cone of l (inclusive).
func inFanoutCone(c *circuit.Circuit, l, x circuit.Line) bool {
	return fanoutConeSet(c, l, nil)[x/64]&(1<<(x%64)) != 0
}

// Apply structurally applies the mod to c (mutating it). The caller should
// have validated with Check; Apply returns Check's error otherwise.
// RemoveWire that leaves a single input converts the gate to BUF (or NOT for
// inverting types) so the netlist stays arity-legal; ToggleInInv inserts a
// fresh NOT gate feeding the pin.
func (m Mod) Apply(c *circuit.Circuit) error {
	if err := m.Check(c); err != nil {
		return err
	}
	switch m.Kind {
	case GateReplace:
		c.SetType(m.Line, m.NewType)
	case ToggleOutInv:
		nt, _ := invertedType(c.Gates[m.Line].Type)
		c.SetType(m.Line, nt)
	case ToggleInInv:
		src := c.Gates[m.Line].Fanin[m.Pin]
		inv := c.AddGate(circuit.Not, src)
		c.SetFanin(m.Line, m.Pin, inv)
	case AddWire:
		c.AppendFanin(m.Line, m.Src)
		if m.NewType != circuit.Input {
			c.SetType(m.Line, m.NewType)
		}
	case RemoveWire:
		c.RemoveFanin(m.Line, m.Pin)
		if len(c.Gates[m.Line].Fanin) == 1 {
			switch c.Gates[m.Line].Type {
			case circuit.And, circuit.Or, circuit.Xor:
				c.SetType(m.Line, circuit.Buf)
			case circuit.Nand, circuit.Nor, circuit.Xnor:
				c.SetType(m.Line, circuit.Not)
			}
		}
	case ReplaceWire:
		c.SetFanin(m.Line, m.Pin, m.Src)
	default:
		return fmt.Errorf("errmodel: unknown kind %d", m.Kind)
	}
	return nil
}

// stackFanin is the fanin count up to which NewValues builds a mod's fanin
// list and pin complements in stack buffers; wider gates spill to the heap.
const stackFanin = 16

// NewValues computes, into dst, the value row the target line would carry
// under this mod — one local gate evaluation over base values, with no
// propagation. The diagnosis algorithm's screens force this row onto the
// target; the Theorem-1 screen (Screen) evaluates it only for kinds other
// than wire additions and replacements. It does not allocate for gates of
// up to stackFanin inputs.
func (m Mod) NewValues(e *sim.Engine, dst []uint64) {
	var finBuf [stackFanin]circuit.Line
	var compBuf [stackFanin]bool
	t, fin, comp, outComp := m.gate(&e.C.Gates[m.Line], finBuf[:0], compBuf[:0])
	e.EvalCandidate(dst, t, fin, comp, outComp)
}

// gate describes the gate the target evaluates as under the mod, given its
// current gate g: type, fanin lines, per-pin complements (nil for none) and
// whether the output is complemented. Modified fanin and complement lists
// are built by appending to finBuf and compBuf.
func (m Mod) gate(g *circuit.Gate, finBuf []circuit.Line, compBuf []bool) (t circuit.GateType, fin []circuit.Line, comp []bool, outComp bool) {
	switch m.Kind {
	case GateReplace:
		return m.NewType, g.Fanin, nil, false
	case ToggleOutInv:
		return g.Type, g.Fanin, nil, true
	case ToggleInInv:
		comp = compBuf
		for p := range g.Fanin {
			comp = append(comp, p == m.Pin)
		}
		return g.Type, g.Fanin, comp, false
	case AddWire:
		return m.addWireType(g.Type), append(append(finBuf, g.Fanin...), m.Src), nil, false
	case RemoveWire:
		fin = finBuf
		for p, f := range g.Fanin {
			if p != m.Pin {
				fin = append(fin, f)
			}
		}
		return g.Type, fin, nil, false
	case ReplaceWire:
		fin = append(finBuf, g.Fanin...)
		fin[m.Pin] = m.Src
		return g.Type, fin, nil, false
	}
	panic("errmodel: unknown kind")
}
