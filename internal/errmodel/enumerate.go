package errmodel

import "dedc/internal/circuit"

// replacementTypes lists candidate gate types by arity.
var replacementMulti = []circuit.GateType{circuit.And, circuit.Nand, circuit.Or, circuit.Nor}
var replacementPair = []circuit.GateType{circuit.And, circuit.Nand, circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor}
var replacementSingle = []circuit.GateType{circuit.Buf, circuit.Not}

// Enumerate returns the correction candidates at line l under the design
// error model: gate replacements, output/input inverter toggles, input-wire
// removal, and input-wire addition/replacement drawing sources from
// wireSrcs. Sources inside the fanout cone of l are filtered out (they would
// create combinational cycles), as are no-op replacements. The target must
// be a logic gate; PIs and constants yield no candidates.
func Enumerate(c *circuit.Circuit, l circuit.Line, wireSrcs []circuit.Line) []Mod {
	g := &c.Gates[l]
	switch g.Type {
	case circuit.Input, circuit.Const0, circuit.Const1, circuit.DFF:
		return nil
	}
	// Gate replacement. The inverted counterpart is covered by ToggleOutInv
	// and skipped here to avoid duplicate corrections.
	inv, _ := g.Type.InversionOf()
	var cands []circuit.GateType
	switch {
	case len(g.Fanin) == 1:
		cands = replacementSingle
	case len(g.Fanin) == 2:
		cands = replacementPair
	default:
		cands = replacementMulti
	}
	// A single-input BUF/NOT may be the residue of a missing-input-wire
	// error on a two-input gate; AddWire then restores both the wire and
	// the (inversion-preserving) gate type.
	var restoreTypes []circuit.GateType
	switch g.Type {
	case circuit.Buf:
		restoreTypes = []circuit.GateType{circuit.And, circuit.Or}
	case circuit.Not:
		restoreTypes = []circuit.GateType{circuit.Nand, circuit.Nor}
	}
	// Size mods for every candidate the loops below can emit.
	nf := len(g.Fanin)
	mods := make([]Mod, 0, len(cands)+1+2*nf+len(wireSrcs)*(1+len(restoreTypes)+nf))
	for _, t := range cands {
		if t == g.Type || t == inv {
			continue
		}
		mods = append(mods, Mod{Kind: GateReplace, Line: l, NewType: t})
	}
	mods = append(mods, Mod{Kind: ToggleOutInv, Line: l})

	for p := range g.Fanin {
		mods = append(mods, Mod{Kind: ToggleInInv, Line: l, Pin: p})
	}
	if len(g.Fanin) >= 2 {
		for p := range g.Fanin {
			mods = append(mods, Mod{Kind: RemoveWire, Line: l, Pin: p})
		}
	}

	if len(wireSrcs) > 0 {
		// Mark the fanout cone of l (l included) once for the cycle filter.
		inCone := fanoutConeSet(c, l)
		canAdd := g.Type != circuit.Buf && g.Type != circuit.Not && g.Type != circuit.DFF &&
			g.Type != circuit.Xor && g.Type != circuit.Xnor
		for _, src := range wireSrcs {
			if inCone[src/64]&(1<<(src%64)) != 0 {
				continue
			}
			if canAdd {
				dup := false
				for _, f := range g.Fanin {
					if f == src {
						dup = true
						break
					}
				}
				if !dup {
					mods = append(mods, Mod{Kind: AddWire, Line: l, Src: src})
				}
			}
			for _, rt := range restoreTypes {
				mods = append(mods, Mod{Kind: AddWire, Line: l, Src: src, NewType: rt})
			}
			for p, f := range g.Fanin {
				if f == src {
					continue
				}
				mods = append(mods, Mod{Kind: ReplaceWire, Line: l, Pin: p, Src: src})
			}
		}
	}
	return mods
}

// fanoutConeSet returns the fanout cone of l, l included, as a bitset over
// c's lines: bit x%64 of word x/64 is set for every line x in the cone.
func fanoutConeSet(c *circuit.Circuit, l circuit.Line) []uint64 {
	fo := c.Fanout()
	set := make([]uint64, (c.NumLines()+63)/64)
	set[l/64] |= 1 << (l % 64)
	var buf [64]circuit.Line
	stack := append(buf[:0], l)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range fo[x] {
			if set[y/64]&(1<<(y%64)) == 0 {
				set[y/64] |= 1 << (y % 64)
				stack = append(stack, y)
			}
		}
	}
	return set
}
