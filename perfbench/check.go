package main

import (
	"fmt"
	"math/rand"
	"strings"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/sim"
)

// The checker accepts an answer only if an oracle that shares no code with
// the engine's verify gate confirms it. Repairs and fault tuples are
// re-simulated by evaluate below, a plain gate-by-gate evaluator over the
// vectors in a seeded random order, with inputs matched by name and
// outputs by position. Proven repairs are confirmed by exhaustive
// simulation, not SAT.

// patterns is a vector set in packed form: one row per primary input, in
// the PI order of the circuit it was built for, n patterns.
type patterns struct {
	names []string // PI names, row order
	rows  [][]uint64
	n     int
}

func patternsFor(c *circuit.Circuit, pi [][]uint64, n int) patterns {
	names := make([]string, len(c.PIs))
	for i, l := range c.PIs {
		names[i] = c.Name(l)
	}
	return patterns{names, pi, n}
}

// permuted returns the same patterns in a seeded random order.
func (p patterns) permuted(seed int64) patterns {
	perm := rand.New(rand.NewSource(seed)).Perm(p.n)
	rows := make([][]uint64, len(p.rows))
	w := (p.n + 63) / 64
	for i, row := range p.rows {
		dst := make([]uint64, w)
		for j, src := range perm {
			bit := (row[src>>6] >> (uint(src) & 63)) & 1
			dst[j>>6] |= bit << (uint(j) & 63)
		}
		rows[i] = dst
	}
	return patterns{p.names, rows, p.n}
}

// evaluate simulates c over p and returns its PO rows in PO order. Inputs
// are matched to pattern rows by name.
func evaluate(c *circuit.Circuit, p patterns) ([][]uint64, error) {
	w := (p.n + 63) / 64
	byName := make(map[string]int, len(p.names))
	for i, nm := range p.names {
		byName[nm] = i
	}
	val := make([][]uint64, len(c.Gates))
	for _, l := range c.PIs {
		i, ok := byName[c.Name(l)]
		if !ok {
			return nil, fmt.Errorf("input %q has no pattern row", c.Name(l))
		}
		val[l] = p.rows[i]
	}
	state := make([]uint8, len(c.Gates)) // 0 new, 1 on stack, 2 done
	var eval func(l circuit.Line) error
	eval = func(l circuit.Line) error {
		switch state[l] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("combinational cycle through %q", c.Name(l))
		}
		state[l] = 1
		g := c.Gates[l]
		if g.Type == circuit.Input {
			if val[l] == nil {
				return fmt.Errorf("line %q is INPUT but not a primary input", c.Name(l))
			}
			state[l] = 2
			return nil
		}
		for _, f := range g.Fanin {
			if err := eval(f); err != nil {
				return err
			}
		}
		out := make([]uint64, w)
		for i := 0; i < w; i++ {
			var acc uint64
			switch g.Type {
			case circuit.Const0:
				acc = 0
			case circuit.Const1:
				acc = ^uint64(0)
			case circuit.Buf, circuit.Not:
				acc = val[g.Fanin[0]][i]
			case circuit.And, circuit.Nand:
				acc = ^uint64(0)
				for _, f := range g.Fanin {
					acc &= val[f][i]
				}
			case circuit.Or, circuit.Nor:
				for _, f := range g.Fanin {
					acc |= val[f][i]
				}
			case circuit.Xor, circuit.Xnor:
				for _, f := range g.Fanin {
					acc ^= val[f][i]
				}
			default:
				return fmt.Errorf("line %q: gate type %v cannot be evaluated", c.Name(l), g.Type)
			}
			switch g.Type {
			case circuit.Not, circuit.Nand, circuit.Nor, circuit.Xnor:
				acc = ^acc
			}
			out[i] = acc
		}
		val[l] = out
		state[l] = 2
		return nil
	}
	res := make([][]uint64, len(c.POs))
	for i, po := range c.POs {
		if err := eval(po); err != nil {
			return nil, err
		}
		res[i] = val[po]
	}
	return res, nil
}

// sameOutputs compares two circuits' PO rows, position by position, on the
// first n patterns. Positions, not names, identify outputs: injecting a
// stem fault on an output re-points its PO slot at a new constant line.
func sameOutputs(got, want [][]uint64, n int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d outputs, want %d", len(got), len(want))
	}
	w := (n + 63) / 64
	tail := ^uint64(0)
	if n%64 != 0 {
		tail = (uint64(1) << uint(n%64)) - 1
	}
	for k, wr := range want {
		gr := got[k]
		for i := 0; i < w; i++ {
			mask := ^uint64(0)
			if i == w-1 {
				mask = tail
			}
			if (gr[i]^wr[i])&mask != 0 {
				return fmt.Errorf("output %d differs from the reference", k)
			}
		}
	}
	return nil
}

// checkRepair accepts a repaired netlist only if it reproduces the
// specification's outputs on every vector of V, re-simulated in a seeded
// random order.
func checkRepair(repaired, spec *circuit.Circuit, v patterns, permSeed int64) error {
	if len(repaired.POs) != len(spec.POs) {
		return fmt.Errorf("repair has %d outputs, spec %d", len(repaired.POs), len(spec.POs))
	}
	for i, po := range spec.POs {
		if a, b := repaired.Name(repaired.POs[i]), spec.Name(po); a != b {
			return fmt.Errorf("repair output %d is %q, spec has %q", i, a, b)
		}
	}
	pv := v.permuted(permSeed)
	want, err := evaluate(spec, pv)
	if err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	got, err := evaluate(repaired, pv)
	if err != nil {
		return fmt.Errorf("repair: %w", err)
	}
	if err := sameOutputs(got, want, v.n); err != nil {
		return fmt.Errorf("repair: %w", err)
	}
	return nil
}

// checkTuples accepts a stuck-at answer only if there is at least one
// tuple, every tuple has the same size, at most k, and injecting each
// tuple into the netlist reproduces the device's outputs on every vector.
func checkTuples(netlist, device *circuit.Circuit, tuples []fault.Tuple, k int, v patterns, permSeed int64) error {
	if len(tuples) == 0 {
		return fmt.Errorf("no tuples")
	}
	size := len(tuples[0])
	if size == 0 || size > k {
		return fmt.Errorf("tuple size %d outside 1..%d", size, k)
	}
	pv := v.permuted(permSeed)
	want, err := evaluate(device, pv)
	if err != nil {
		return fmt.Errorf("device: %w", err)
	}
	seen := map[string]bool{}
	for i, t := range tuples {
		if len(t) != size {
			return fmt.Errorf("tuple %d has size %d, tuple 0 has %d", i, len(t), size)
		}
		key := t.Canon().Key()
		if seen[key] {
			return fmt.Errorf("tuple %d repeats %s", i, t)
		}
		seen[key] = true
		got, err := evaluate(fault.Inject(netlist, t...), pv)
		if err != nil {
			return fmt.Errorf("tuple %d: %w", i, err)
		}
		if err := sameOutputs(got, want, v.n); err != nil {
			return fmt.Errorf("tuple %d (%s): %w", i, t, err)
		}
	}
	return nil
}

// checkProven accepts a proven repair only if exhaustive simulation over
// every input combination confirms it equals the specification.
func checkProven(repaired, spec *circuit.Circuit) error {
	if len(repaired.PIs) != len(spec.PIs) || len(repaired.POs) != len(spec.POs) {
		return fmt.Errorf("interface mismatch")
	}
	if !sim.EquivalentExhaustive(spec, repaired) {
		return fmt.Errorf("repair is not equivalent to the specification")
	}
	return nil
}

// siteNames maps every fault site of c to its name as dedcd prints it.
func siteNames(c *circuit.Circuit) map[string]fault.Site {
	m := map[string]fault.Site{}
	for _, s := range fault.Sites(c) {
		m[s.Name(c)] = s
	}
	return m
}

// tupleKey names a tuple in dedcd's form: "site/value" per fault, joined
// by commas.
func tupleKey(c *circuit.Circuit, t fault.Tuple) string {
	names := make([]string, len(t))
	for i, f := range t {
		v := 0
		if f.Value {
			v = 1
		}
		names[i] = fmt.Sprintf("%s/%d", f.Site.Name(c), v)
	}
	return strings.Join(names, ",")
}

// parseTuples turns dedcd's "site/value" names back into fault tuples.
func parseTuples(names [][]string, sites map[string]fault.Site) ([]fault.Tuple, error) {
	var out []fault.Tuple
	for _, tn := range names {
		var t fault.Tuple
		for _, nm := range tn {
			if len(nm) < 3 || nm[len(nm)-2] != '/' {
				return nil, fmt.Errorf("bad fault name %q", nm)
			}
			s, ok := sites[nm[:len(nm)-2]]
			if !ok {
				return nil, fmt.Errorf("unknown fault site %q", nm)
			}
			switch nm[len(nm)-1] {
			case '0':
				t = append(t, fault.Fault{Site: s, Value: false})
			case '1':
				t = append(t, fault.Fault{Site: s, Value: true})
			default:
				return nil, fmt.Errorf("bad fault value in %q", nm)
			}
		}
		out = append(out, t)
	}
	return out, nil
}
