package errmodel

import "dedc/internal/circuit"

// replacementTypes lists candidate gate types by arity.
var replacementMulti = []circuit.GateType{circuit.And, circuit.Nand, circuit.Or, circuit.Nor}
var replacementPair = []circuit.GateType{circuit.And, circuit.Nand, circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor}
var replacementSingle = []circuit.GateType{circuit.Buf, circuit.Not}

// Enumerate returns the correction candidates at line l in Walk's order.
// PIs and constants yield nil.
func Enumerate(c *circuit.Circuit, l circuit.Line, wireSrcs []circuit.Line) []Mod {
	var mods []Mod
	Walk(c, l, wireSrcs, func(m Mod) bool {
		mods = append(mods, m)
		return true
	})
	return mods
}

// Walk calls yield with each correction candidate at line l under the design
// error model, stopping early when yield returns false: gate replacements,
// output/input inverter toggles, input-wire removal, and input-wire
// addition/replacement drawing sources from wireSrcs. Sources inside the
// fanout cone of l are filtered out (they would create combinational
// cycles), as are no-op replacements. The target must be a logic gate; PIs,
// constants and flip-flops yield no candidates. This is the model's one
// enumeration order: Enumerate and Screen.Walk follow it.
func Walk(c *circuit.Circuit, l circuit.Line, wireSrcs []circuit.Line, yield func(Mod) bool) {
	walk(c, l, wireSrcs, nil, yield)
}

// walk is Walk with the fanout-cone bitset built in cone's storage. It
// returns that storage, grown when c needed more words.
func walk(c *circuit.Circuit, l circuit.Line, wireSrcs []circuit.Line, cone []uint64, yield func(Mod) bool) []uint64 {
	g := &c.Gates[l]
	switch g.Type {
	case circuit.Input, circuit.Const0, circuit.Const1, circuit.DFF:
		return cone
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
	for _, t := range cands {
		if t == g.Type || t == inv {
			continue
		}
		if !yield(Mod{Kind: GateReplace, Line: l, NewType: t}) {
			return cone
		}
	}
	if !yield(Mod{Kind: ToggleOutInv, Line: l}) {
		return cone
	}
	for p := range g.Fanin {
		if !yield(Mod{Kind: ToggleInInv, Line: l, Pin: p}) {
			return cone
		}
	}
	if len(g.Fanin) >= 2 {
		for p := range g.Fanin {
			if !yield(Mod{Kind: RemoveWire, Line: l, Pin: p}) {
				return cone
			}
		}
	}
	if len(wireSrcs) == 0 {
		return cone
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
	// Mark the fanout cone of l (l included) once for the cycle filter.
	cone = fanoutConeSet(c, l, cone)
	canAdd := g.Type != circuit.Buf && g.Type != circuit.Not &&
		g.Type != circuit.Xor && g.Type != circuit.Xnor
	for _, src := range wireSrcs {
		if cone[src/64]&(1<<(src%64)) != 0 {
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
			if !dup && !yield(Mod{Kind: AddWire, Line: l, Src: src}) {
				return cone
			}
		}
		for _, rt := range restoreTypes {
			if !yield(Mod{Kind: AddWire, Line: l, Src: src, NewType: rt}) {
				return cone
			}
		}
		for p, f := range g.Fanin {
			if f == src {
				continue
			}
			if !yield(Mod{Kind: ReplaceWire, Line: l, Pin: p, Src: src}) {
				return cone
			}
		}
	}
	return cone
}

// fanoutConeSet returns the fanout cone of l, l included, as a bitset over
// c's lines: bit x%64 of word x/64 is set for every line x in the cone. The
// set is built in set's storage when it has room.
func fanoutConeSet(c *circuit.Circuit, l circuit.Line, set []uint64) []uint64 {
	fo := c.Fanout()
	words := (c.NumLines() + 63) / 64
	if cap(set) < words {
		set = make([]uint64, words)
	}
	set = set[:words]
	clear(set)
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
