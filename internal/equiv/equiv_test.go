package equiv

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dedc/internal/circuit"
	"dedc/internal/errmodel"
	"dedc/internal/gen"
	"dedc/internal/opt"
	"dedc/internal/sim"
)

// checkSAT is the package-level Check with every verdict left to the
// solver, for the tests whose subject is the SAT encoding.
func checkSAT(a, b *circuit.Circuit, opt Options) (*Result, error) {
	ss, err := NewSession(a)
	if err != nil {
		return nil, err
	}
	return ss.check(b, opt, false)
}

// mustCheck decides a ≡ b by SAT and by Check, which may simulate, and
// returns the SAT result after checking that the two verdicts agree.
func mustCheck(t *testing.T, a, b *circuit.Circuit) *Result {
	t.Helper()
	res, err := checkSAT(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("solver aborted")
	}
	if res.Method != MethodSAT {
		t.Fatalf("SAT-only check decided by %v", res.Method)
	}
	pub, err := Check(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pub.Aborted || pub.Equivalent != res.Equivalent {
		t.Fatalf("Check says equivalent=%v aborted=%v (%v), SAT says %v",
			pub.Equivalent, pub.Aborted, pub.Method, res.Equivalent)
	}
	return res
}

func TestIdenticalCircuitsEquivalent(t *testing.T) {
	c := gen.Alu(4)
	res := mustCheck(t, c, c.Clone())
	if !res.Equivalent {
		t.Fatal("identical circuits not proven equivalent")
	}
}

func TestDeMorganEquivalent(t *testing.T) {
	c1 := circuit.New(4)
	a := c1.AddPI("a")
	b := c1.AddPI("b")
	c1.MarkPO(c1.AddGate(circuit.Nand, a, b))
	c2 := circuit.New(6)
	a = c2.AddPI("a")
	b = c2.AddPI("b")
	c2.MarkPO(c2.AddGate(circuit.Or, c2.AddGate(circuit.Not, a), c2.AddGate(circuit.Not, b)))
	if !mustCheck(t, c1, c2).Equivalent {
		t.Fatal("De Morgan pair not proven equivalent")
	}
}

func TestAdderImplementationsEquivalent(t *testing.T) {
	// Ripple vs carry-select: structurally very different, functionally
	// identical — a real equivalence-checking workload.
	ra := gen.RippleAdder(8)
	cs := gen.CarrySelectAdder(8, 3)
	res := mustCheck(t, ra, cs)
	if !res.Equivalent {
		t.Fatal("adder implementations not proven equivalent")
	}
}

func TestOptimizerOutputProven(t *testing.T) {
	for _, c := range []*circuit.Circuit{
		gen.Alu(4), gen.ECC(8, false), gen.Comparator(6), gen.ArrayMultiplier(4),
	} {
		oc, err := opt.Optimize(c)
		if err != nil {
			t.Fatal(err)
		}
		if !mustCheck(t, c, oc).Equivalent {
			t.Fatal("optimizer output not proven equivalent")
		}
	}
}

func TestCounterexampleIsReal(t *testing.T) {
	// Inject a design error; the checker must find a distinguishing input,
	// and simulating it must actually distinguish the circuits.
	spec := gen.Alu(4)
	for seed := int64(0); seed < 5; seed++ {
		bad, _, err := errmodel.Inject(spec, 1, errmodel.InjectOptions{Seed: seed + 30})
		if err != nil {
			t.Fatal(err)
		}
		res := mustCheck(t, spec, bad)
		if res.Equivalent {
			t.Fatal("erroneous circuit proven equivalent")
		}
		if len(res.Counterexample) != len(spec.PIs) {
			t.Fatal("counterexample has wrong width")
		}
		pi := make([][]uint64, len(spec.PIs))
		for i, v := range res.Counterexample {
			pi[i] = make([]uint64, 1)
			if v {
				pi[i][0] = 1
			}
		}
		ga := sim.Outputs(spec, sim.Simulate(spec, pi, 1))
		gb := sim.Outputs(bad, sim.Simulate(bad, pi, 1))
		if sim.DiffMask(ga, gb, 1)[0] == 0 {
			t.Fatal("counterexample does not distinguish the circuits")
		}
	}
}

func TestPropertyAgreesWithExhaustiveSim(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := gen.Random(gen.RandomOptions{PIs: 5, Gates: 30, Seed: seed})
		var b *circuit.Circuit
		if rng.Intn(2) == 0 {
			oc, err := opt.Optimize(a)
			if err != nil {
				return false
			}
			b = oc
		} else {
			bb, _, err := errmodel.Inject(a, 1, errmodel.InjectOptions{Seed: seed ^ 5})
			if err != nil {
				return true // nothing injectable; skip
			}
			b = bb
		}
		res, err := checkSAT(a, b, Options{})
		if err != nil || res.Aborted {
			return false
		}
		return res.Equivalent == sim.EquivalentExhaustive(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestXorXnorEncoding(t *testing.T) {
	// Multi-input XOR/XNOR gates against their NAND expansions.
	b1 := gen.NewB()
	b1.UseXorGates = true
	x := b1.PI("x")
	y := b1.PI("y")
	z := b1.PI("z")
	b1.POName(b1.C.AddGate(circuit.Xor, x, y, z), "o")
	withGates := b1.Done()

	b2 := gen.NewB()
	x = b2.PI("x")
	y = b2.PI("y")
	z = b2.PI("z")
	b2.POName(b2.Xor2(b2.Xor2(x, y), z), "o")
	expanded := b2.Done()

	if !mustCheck(t, withGates, expanded).Equivalent {
		t.Fatal("XOR3 encoding wrong")
	}
	// XNOR3 version.
	b3 := gen.NewB()
	b3.UseXorGates = true
	x = b3.PI("x")
	y = b3.PI("y")
	z = b3.PI("z")
	b3.POName(b3.C.AddGate(circuit.Xnor, x, y, z), "o")
	b4 := gen.NewB()
	x = b4.PI("x")
	y = b4.PI("y")
	z = b4.PI("z")
	b4.POName(b4.Not(b4.Xor2(b4.Xor2(x, y), z)), "o")
	if !mustCheck(t, b3.Done(), b4.Done()).Equivalent {
		t.Fatal("XNOR3 encoding wrong")
	}
}

func TestConstantsEncoding(t *testing.T) {
	c1 := circuit.New(4)
	a := c1.AddPI("a")
	k := c1.AddGate(circuit.Const1)
	c1.MarkPO(c1.AddGate(circuit.And, a, k)) // = a
	c2 := circuit.New(2)
	a = c2.AddPI("a")
	c2.MarkPO(c2.AddGate(circuit.Buf, a))
	if !mustCheck(t, c1, c2).Equivalent {
		t.Fatal("constant encoding wrong")
	}
}

func TestInterfaceMismatchErrors(t *testing.T) {
	a := gen.RippleAdder(2)
	b := gen.RippleAdder(3)
	if _, err := Check(a, b, Options{}); err == nil {
		t.Fatal("PI mismatch accepted")
	}
}

func TestSequentialRejected(t *testing.T) {
	c := circuit.New(3)
	x := c.AddPI("x")
	c.MarkPO(c.AddGate(circuit.DFF, x))
	if _, err := Check(c, c.Clone(), Options{}); err == nil {
		t.Fatal("sequential circuit accepted")
	}
}

func TestConflictBudgetAborts(t *testing.T) {
	// A multiplier miter with a 1-conflict budget should abort (unless it
	// proves instantly, which it will not at this size).
	a := gen.ArrayMultiplier(6)
	b := gen.ArrayMultiplier(6)
	// Introduce a deep difference so the proof needs work.
	bb, _, err := errmodel.Inject(b, 1, errmodel.InjectOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := checkSAT(a, bb, Options{MaxConflicts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("different circuits proven equivalent")
	}
	// Either found a counterexample fast or aborted; both acceptable here.
}

func TestMultiplierEquivalenceScale(t *testing.T) {
	// Prove a 6x6 multiplier equals its optimized form: a meaningful UNSAT
	// instance (multiplier miters are the classic hard case for SAT; the
	// 8x8 version takes ~2 minutes and ~200k conflicts on this solver).
	c := gen.ArrayMultiplier(6)
	oc, err := opt.Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := checkSAT(c, oc, Options{MaxConflicts: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Skip("solver budget exceeded on this machine")
	}
	if !res.Equivalent {
		t.Fatal("multiplier optimization not equivalent")
	}
	t.Logf("proved with %d conflicts, %d decisions", res.Conflicts, res.Decisions)
}
