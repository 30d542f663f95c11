// Package tpg generates test vectors: weighted-random patterns and a PODEM
// deterministic test pattern generator. BuildVectors runs PODEM on every
// collapsed fault the random patterns missed and fault-simulates the whole
// set once, after the PODEM pass, to report coverage.
// The paper seeds its bit-lists with deterministic vectors from Hamzaoglu–
// Patel plus 6,000–10,000 random vectors; BuildVectors plays that role here.
package tpg

import "dedc/internal/circuit"

// v3 is a ternary logic value.
type v3 uint8

const (
	f3 v3 = 0 // false
	t3 v3 = 1 // true
	x3 v3 = 2 // unknown
)

func not3(a v3) v3 {
	switch a {
	case f3:
		return t3
	case t3:
		return f3
	}
	return x3
}

// pv is a packed five-valued line value: the good machine's ternary value
// in bits 0–1 and the faulty machine's in bits 2–3. Each machine is a
// (one, zero) bit pair — 1 = 01, 0 = 10, X = 00 — so one AND and one OR
// over a gate's fanins evaluate AND/OR-type gates on both machines at once,
// without branching on the values.
type pv uint8

const (
	pvOne  pv = 0b0101 // both machines 1; also the mask of every "one" bit
	pvZero pv = 0b1010 // both machines 0; also the mask of every "zero" bit
	pvD    pv = 0b1001 // good 1, faulty 0
	pvDbar pv = 0b0110 // good 0, faulty 1
	pvGood pv = 0b0011 // good machine bits
	pvBad  pv = 0b1100 // faulty machine bits
)

// pvOf packs one ternary value into both machines.
var pvOf = [3]pv{f3: pvZero, t3: pvOne, x3: 0}

// unpack decodes one machine's bit pair.
var unpack = [4]v3{0b00: x3, 0b01: t3, 0b10: f3, 0b11: x3}

// good decodes the good machine's value.
func good(v pv) v3 { return unpack[v&pvGood] }

// invert swaps every machine's one and zero bits (NOT; X stays X).
func invert(v pv) pv { return (v&pvOne)<<1 | (v&pvZero)>>1 }

// xorPV is the ternary XOR of a and b on both machines: a machine's result
// is 1 when exactly one side is 1 and the other 0, 0 when the sides are
// known and equal, and X otherwise.
func xorPV(a, b pv) pv {
	d := a & invert(b) // bit 0: a1&b0, bit 1: a0&b1 (per machine)
	s := a & b         // bit 0: a1&b1, bit 1: a0&b0
	return (d|d>>1)&pvOne | (s|s<<1)&pvZero
}

// evalPV evaluates a non-input gate of type t over the packed values of its
// fanins. When pin >= 0, the faulty machine reads stuck (a faulty-machine
// bit pair, already shifted into bits 2–3) on that pin instead: a branch
// stuck-at fault on the reader's input.
func evalPV(t circuit.GateType, fanin []circuit.Line, val []pv, pin int, stuck pv) pv {
	switch t {
	case circuit.Const0:
		return pvZero
	case circuit.Const1:
		return pvOne
	case circuit.Buf, circuit.DFF, circuit.Not:
		v := val[fanin[0]]
		if pin == 0 {
			v = v&pvGood | stuck
		}
		if t == circuit.Not {
			v = invert(v)
		}
		return v
	case circuit.Xor, circuit.Xnor:
		x := pvZero
		for i, f := range fanin {
			v := val[f]
			if i == pin {
				v = v&pvGood | stuck
			}
			x = xorPV(x, v)
		}
		if t == circuit.Xnor {
			x = invert(x)
		}
		return x
	}
	// AND/OR family: a machine's AND is 1 when every input's one bit is set
	// and 0 when any input's zero bit is; OR is the dual.
	and, or := pv(0xF), pv(0)
	for i, f := range fanin {
		v := val[f]
		if i == pin {
			v = v&pvGood | stuck
		}
		and &= v
		or |= v
	}
	var r pv
	switch t {
	case circuit.And, circuit.Nand:
		r = and&pvOne | or&pvZero
	case circuit.Or, circuit.Nor:
		r = or&pvOne | and&pvZero
	default:
		panic("tpg: cannot evaluate " + t.String())
	}
	if t == circuit.Nand || t == circuit.Nor {
		r = invert(r)
	}
	return r
}
