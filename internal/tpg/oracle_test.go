package tpg_test

import (
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/sat"
	"dedc/internal/tpg"
)

// The oracles live outside package tpg, beside the other black-box tests of
// its verdicts.

// satEquivalent decides a ≡ b with a fresh SAT miter. It shares no code
// with sim, whose engine the redundancy proof draws its candidates from, so
// the oracle stays independent of both PODEM and the proof. When the
// circuits differ it returns the distinguishing input assignment.
func satEquivalent(t *testing.T, a, b *circuit.Circuit) (equivalent bool, counterexample []bool) {
	t.Helper()
	s := sat.NewSolver(0)
	piVars := make([]int, len(a.PIs))
	for i := range piVars {
		piVars[i] = s.NewVar()
	}
	constTrue := sat.Lit(-1)
	la := sat.EncodeCircuit(s, a, piVars, -1, &constTrue)
	lb := sat.EncodeCircuit(s, b, piVars, -1, &constTrue)
	diffs := make([]sat.Lit, len(a.POs))
	for i := range a.POs {
		x, y := la[a.POs[i]], lb[b.POs[i]]
		d := sat.MkLit(s.NewVar(), true) // d implies x != y
		s.AddClause(d.Neg(), x, y)
		s.AddClause(d.Neg(), x.Neg(), y.Neg())
		diffs[i] = d
	}
	s.AddClause(diffs...)
	switch s.Solve() {
	case sat.Unsat:
		return true, nil
	case sat.Sat:
		counterexample = make([]bool, len(piVars))
		for i, v := range piVars {
			counterexample[i] = s.Value(v)
		}
		return false, counterexample
	}
	t.Fatal("SAT miter: no verdict without a conflict budget")
	return false, nil
}

// generateChecked runs PODEM on ft and checks the verdict against oracles
// that share no code with PODEM: every Untestable fault must leave the
// circuit equivalent to the fault-free one under a SAT miter proof
// (satEquivalent), and every TestFound assignment, with its don't-cares
// filled either way, must detect the fault under bit-parallel fault
// simulation.
func generateChecked(t *testing.T, p *tpg.Podem, ft fault.Fault) tpg.PodemResult {
	t.Helper()
	c := p.C
	assign, res := p.Generate(ft)
	switch res {
	case tpg.Untestable:
		if ok, cex := satEquivalent(t, c, fault.Inject(c, ft)); !ok {
			t.Fatalf("%v: PODEM says untestable, SAT finds the test %v", ft, cex)
		}
	case tpg.TestFound:
		for _, fill := range []bool{false, true} {
			pi := tpg.ApplyAssignment(c, assign, fill)
			if !fault.Detected(c, []fault.Fault{ft}, pi, 1)[0] {
				t.Fatalf("%v: assignment %v (fill %v) does not detect the fault", ft, assign, fill)
			}
		}
	}
	return res
}

// checkEquivalent checks a fault the redundancy proof flagged: injecting it
// must leave c equivalent to the fault-free circuit under a SAT miter
// proof (satEquivalent), which shares no code with the proof's rules or
// the simulation its candidates come from.
func checkEquivalent(t *testing.T, c *circuit.Circuit, ft fault.Fault) {
	t.Helper()
	if ok, cex := satEquivalent(t, c, fault.Inject(c, ft)); !ok {
		t.Fatalf("%v: the redundancy proof says untestable, SAT finds the test %v", ft, cex)
	}
}

// TestPodemVerdictOracle runs PODEM on every stem and branch fault of small
// random circuits and of two XOR-bearing circuits and checks each verdict
// with generateChecked. It also runs the redundancy proof on every fault,
// with candidates from 16 and from 1024 random patterns (16 makes many lines
// look constant that are not), and checks each fault it proves with
// checkEquivalent; PODEM must not have found a test for any of them.
func TestPodemVerdictOracle(t *testing.T) {
	cs := []*circuit.Circuit{gen.ECC(8, false), gen.Alu(4)}
	for s := int64(1); s <= 8; s++ {
		cs = append(cs, gen.Random(gen.RandomOptions{PIs: 8 + int(s)%7, Gates: 40 + 10*int(s), Seed: s}))
	}
	count := map[tpg.PodemResult]int{}
	stems, branches, proven := 0, 0, 0
	for _, c := range cs {
		p := tpg.NewPodem(c)
		faults := fault.AllFaults(c)
		verdicts := make([]tpg.PodemResult, len(faults))
		for i, ft := range faults {
			verdicts[i] = generateChecked(t, p, ft)
			count[verdicts[i]]++
			if ft.IsStem() {
				stems++
			} else {
				branches++
			}
		}
		for _, random := range []int{16, 1024} {
			for i, ok := range tpg.ProveUntestable(c, random, 1, faults) {
				if !ok {
					continue
				}
				proven++
				if verdicts[i] == tpg.TestFound {
					t.Fatalf("%v: the redundancy proof says untestable, PODEM found a test", faults[i])
				}
				checkEquivalent(t, c, faults[i])
			}
		}
	}
	if count[tpg.TestFound] == 0 || count[tpg.Untestable] == 0 || stems == 0 || branches == 0 || proven == 0 {
		t.Fatalf("weak coverage: verdicts %v, %d stem and %d branch faults, %d proven", count, stems, branches, proven)
	}
}

// FuzzGenerate checks single PODEM verdicts, and the redundancy proof's
// verdict on the same fault, on fuzzed random circuits.
func FuzzGenerate(f *testing.F) {
	f.Add(uint8(0), uint8(30), int64(1), uint16(0))
	f.Add(uint8(4), uint8(90), int64(7), uint16(123))
	f.Add(uint8(6), uint8(200), int64(42), uint16(999))
	f.Fuzz(func(t *testing.T, pis, gates uint8, seed int64, idx uint16) {
		c := gen.Random(gen.RandomOptions{PIs: 8 + int(pis)%7, Gates: 10 + int(gates), Seed: seed})
		faults := fault.AllFaults(c)
		ft := faults[int(idx)%len(faults)]
		res := generateChecked(t, tpg.NewPodem(c), ft)
		if tpg.ProveUntestable(c, 32, seed, []fault.Fault{ft})[0] {
			if res == tpg.TestFound {
				t.Fatalf("%v: the redundancy proof says untestable, PODEM found a test", ft)
			}
			checkEquivalent(t, c, ft)
		}
	})
}
