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
// circuit equivalent to the fault-free one under a SAT miter proof, and
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

// TestPodemVerdictOracle runs PODEM on every stem and branch fault of small
// random circuits and of two XOR-bearing circuits and checks each verdict
// with generateChecked.
func TestPodemVerdictOracle(t *testing.T) {
	cs := []*circuit.Circuit{gen.ECC(8, false), gen.Alu(4)}
	for s := int64(1); s <= 8; s++ {
		cs = append(cs, gen.Random(gen.RandomOptions{PIs: 8 + int(s)%7, Gates: 40 + 10*int(s), Seed: s}))
	}
	count := map[tpg.PodemResult]int{}
	stems, branches := 0, 0
	for _, c := range cs {
		p := tpg.NewPodem(c)
		for _, ft := range fault.AllFaults(c) {
			count[generateChecked(t, p, ft)]++
			if ft.IsStem() {
				stems++
			} else {
				branches++
			}
		}
	}
	if count[tpg.TestFound] == 0 || count[tpg.Untestable] == 0 || stems == 0 || branches == 0 {
		t.Fatalf("weak coverage: verdicts %v, %d stem and %d branch faults", count, stems, branches)
	}
}

// FuzzGenerate checks single PODEM verdicts on fuzzed random circuits.
func FuzzGenerate(f *testing.F) {
	f.Add(uint8(0), uint8(30), int64(1), uint16(0))
	f.Add(uint8(4), uint8(90), int64(7), uint16(123))
	f.Add(uint8(6), uint8(200), int64(42), uint16(999))
	f.Fuzz(func(t *testing.T, pis, gates uint8, seed int64, idx uint16) {
		c := gen.Random(gen.RandomOptions{PIs: 8 + int(pis)%7, Gates: 10 + int(gates), Seed: seed})
		faults := fault.AllFaults(c)
		generateChecked(t, tpg.NewPodem(c), faults[int(idx)%len(faults)])
	})
}
