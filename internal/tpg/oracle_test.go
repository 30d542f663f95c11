package tpg_test

import (
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/equiv"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/tpg"
)

// The oracles live outside package tpg because equiv reaches tpg through
// the cache.

// generateChecked runs PODEM on ft and checks the verdict against oracles
// that share no code with PODEM: every Untestable fault must leave the
// circuit equivalent to the fault-free one under an equiv.Check proof
// (exhaustive simulation for narrow circuits, a SAT miter otherwise), and
// every TestFound assignment, with its don't-cares filled either way, must
// detect the fault under bit-parallel fault simulation.
func generateChecked(t *testing.T, p *tpg.Podem, ft fault.Fault) tpg.PodemResult {
	t.Helper()
	c := p.C
	assign, res := p.Generate(ft)
	switch res {
	case tpg.Untestable:
		r, err := equiv.Check(c, fault.Inject(c, ft), equiv.Options{})
		if err != nil {
			t.Fatalf("%v: equivalence check: %v", ft, err)
		}
		if !r.Equivalent {
			t.Fatalf("%v: PODEM says untestable, SAT finds the test %v", ft, r.Counterexample)
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
// must leave c equivalent to the fault-free circuit under an equiv.Check
// proof (exhaustive simulation or a SAT miter), which shares no code with
// the proof's rules.
func checkEquivalent(t *testing.T, c *circuit.Circuit, ft fault.Fault) {
	t.Helper()
	r, err := equiv.Check(c, fault.Inject(c, ft), equiv.Options{})
	if err != nil {
		t.Fatalf("%v: equivalence check: %v", ft, err)
	}
	if !r.Equivalent {
		t.Fatalf("%v: the redundancy proof says untestable, SAT finds the test %v", ft, r.Counterexample)
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
