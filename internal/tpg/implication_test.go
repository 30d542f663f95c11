package tpg

import (
	"fmt"
	"math/rand"
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/gen"
)

// The ternary tables and eval3 below are the reference five-valued
// semantics: one gate on one machine at a time, no packing. PODEM's packed,
// event-driven implication must agree with a full topological pass of them.

func and3(a, b v3) v3 {
	if a == f3 || b == f3 {
		return f3
	}
	if a == t3 && b == t3 {
		return t3
	}
	return x3
}

func or3(a, b v3) v3 {
	if a == t3 || b == t3 {
		return t3
	}
	if a == f3 && b == f3 {
		return f3
	}
	return x3
}

func xor3(a, b v3) v3 {
	if a == x3 || b == x3 {
		return x3
	}
	if a != b {
		return t3
	}
	return f3
}

// eval3 evaluates one gate over ternary inputs.
func eval3(t circuit.GateType, in []v3) v3 {
	switch t {
	case circuit.Const0:
		return f3
	case circuit.Const1:
		return t3
	case circuit.Buf, circuit.DFF:
		return in[0]
	case circuit.Not:
		return not3(in[0])
	case circuit.And, circuit.Nand:
		acc := t3
		for _, v := range in {
			acc = and3(acc, v)
		}
		if t == circuit.Nand {
			acc = not3(acc)
		}
		return acc
	case circuit.Or, circuit.Nor:
		acc := f3
		for _, v := range in {
			acc = or3(acc, v)
		}
		if t == circuit.Nor {
			acc = not3(acc)
		}
		return acc
	case circuit.Xor, circuit.Xnor:
		acc := f3
		for _, v := range in {
			acc = xor3(acc, v)
		}
		if t == circuit.Xnor {
			acc = not3(acc)
		}
		return acc
	}
	panic("tpg: cannot evaluate " + t.String())
}

// bad decodes the faulty machine's value.
func bad(v pv) v3 { return unpack[v>>2&pvGood] }

// refImply simulates every line of c in topological order on the good and
// the faulty machine from the PI assignment, with fault ft injected.
func refImply(c *circuit.Circuit, assign []v3, ft fault.Fault) (goodV, badV []v3) {
	goodV = make([]v3, c.NumLines())
	badV = make([]v3, c.NumLines())
	piPos := map[circuit.Line]int{}
	for i, pi := range c.PIs {
		piPos[pi] = i
	}
	for _, l := range c.Topo() {
		g := &c.Gates[l]
		var gv, bv v3
		if g.Type == circuit.Input {
			gv = assign[piPos[l]]
			bv = gv
		} else {
			var gi, bi []v3
			for pin, f := range g.Fanin {
				fb := badV[f]
				if !ft.IsStem() && ft.Reader == l && ft.Pin == pin {
					fb = stuck(ft)
				}
				gi = append(gi, goodV[f])
				bi = append(bi, fb)
			}
			gv = eval3(g.Type, gi)
			bv = eval3(g.Type, bi)
		}
		if ft.IsStem() && ft.Line == l {
			bv = stuck(ft)
		}
		goodV[l], badV[l] = gv, bv
	}
	return goodV, badV
}

// mixedCircuit builds a random netlist over every combinational gate type,
// constants included, with fanins up to six.
func mixedCircuit(seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(64)
	nPI := 5 + rng.Intn(4)
	for i := 0; i < nPI; i++ {
		c.AddPI(fmt.Sprintf("pi%d", i))
	}
	c.AddGate(circuit.Const0)
	c.AddGate(circuit.Const1)
	types := []circuit.GateType{circuit.Buf, circuit.Not, circuit.And, circuit.Nand,
		circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor}
	for g := 0; g < 30+rng.Intn(20); g++ {
		t := types[rng.Intn(len(types))]
		k := 1
		if t != circuit.Buf && t != circuit.Not {
			k = 2 + rng.Intn(5)
		}
		fanin := make([]circuit.Line, k)
		for i := range fanin {
			n := c.NumLines()
			fanin[i] = circuit.Line(n - 1 - rng.Intn(min(n, 10)))
		}
		c.AddGate(t, fanin...)
	}
	fo := c.Fanout()
	for l := range c.Gates {
		if len(fo[l]) == 0 && c.Gates[l].Type != circuit.Const0 && c.Gates[l].Type != circuit.Const1 {
			c.MarkPO(circuit.Line(l))
		}
	}
	return c
}

// TestImplicationMatchesReference: after every implication step of
// Generate — the initial pass, each decision and each backtrack — the
// event-driven values on the relevant region equal a full topological
// reference pass, and detected() agrees with the reference's POs.
func TestImplicationMatchesReference(t *testing.T) {
	var cs []*circuit.Circuit
	for s := int64(1); s <= 6; s++ {
		cs = append(cs, mixedCircuit(s))
		cs = append(cs, gen.Random(gen.RandomOptions{PIs: 8, Gates: 60, Seed: s, MaxFanin: 6}))
	}
	cs = append(cs, gen.ECC(8, true), gen.Alu(4))
	steps, stems, branches := 0, 0, 0
	for ci, c := range cs {
		p := NewPodem(c)
		p.BacktrackLimit = 200
		var ft fault.Fault
		p.afterImply = func() {
			steps++
			goodV, badV := refImply(c, p.assign, ft)
			for _, l := range p.region {
				if g, b := good(p.val[l]), bad(p.val[l]); g != goodV[l] || b != badV[l] {
					t.Fatalf("circuit %d fault %v line %d (%s): incremental (%d,%d), reference (%d,%d)",
						ci, ft, l, c.Gates[l].Type, g, b, goodV[l], badV[l])
				}
			}
			want := false
			for _, po := range c.POs {
				g, b := goodV[po], badV[po]
				want = want || (g != x3 && b != x3 && g != b)
			}
			if got := p.detected(); got != want {
				t.Fatalf("circuit %d fault %v: detected() = %v, reference %v", ci, ft, got, want)
			}
		}
		for _, f := range fault.AllFaults(c) {
			ft = f
			if f.IsStem() {
				stems++
			} else {
				branches++
			}
			p.Generate(f)
		}
	}
	if stems == 0 || branches == 0 || steps < 10000 {
		t.Fatalf("weak coverage: %d stem, %d branch faults, %d implication steps", stems, branches, steps)
	}
}

// TestEvalPVMatchesEval3: the packed kernel agrees with eval3 on both
// machines for every gate type and arity 1–6 — every ternary input
// combination up to arity 3, a sample above — with and without a faulted
// pin.
func TestEvalPVMatchesEval3(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	types := []circuit.GateType{circuit.Buf, circuit.Not, circuit.And, circuit.Nand,
		circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor, circuit.Const0, circuit.Const1}
	for _, ty := range types {
		for k := 1; k <= 6; k++ {
			if (ty == circuit.Buf || ty == circuit.Not) && k > 1 {
				continue
			}
			fanin := make([]circuit.Line, k)
			for i := range fanin {
				fanin[i] = circuit.Line(i)
			}
			val := make([]pv, k)
			gi, bi := make([]v3, k), make([]v3, k)
			combos := 1
			for i := 0; i < 2*k; i++ {
				combos *= 3
			}
			for n := 0; n < min(combos, 3000); n++ {
				x := n
				if combos > 3000 {
					x = rng.Intn(combos)
				}
				for i := 0; i < k; i++ {
					gi[i], bi[i] = v3(x%3), v3(x/3%3)
					x /= 9
					val[i] = pvOf[gi[i]]&pvGood | pvOf[bi[i]]&pvBad
				}
				for pin := -1; pin < k; pin++ {
					for _, sv := range []v3{f3, t3} {
						b := append([]v3(nil), bi...)
						if pin >= 0 {
							b[pin] = sv
						}
						got := evalPV(ty, fanin, val, pin, pvOf[sv]&pvBad)
						if good(got) != eval3(ty, gi) || bad(got) != eval3(ty, b) {
							t.Fatalf("%s%v/%v pin %d stuck %d: packed (%d,%d), eval3 (%d,%d)",
								ty, gi, bi, pin, sv, good(got), bad(got), eval3(ty, gi), eval3(ty, b))
						}
					}
				}
			}
		}
	}
}
