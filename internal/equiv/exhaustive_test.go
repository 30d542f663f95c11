package equiv

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/errmodel"
	"dedc/internal/gen"
	"dedc/internal/opt"
)

// randomMixed builds a seeded random netlist over every combinational gate
// type, constants and XOR/XNOR included, with up to four POs. It works for
// nPI = 0, where every line is a constant function.
func randomMixed(rng *rand.Rand, nPI, nGates int) *circuit.Circuit {
	c := circuit.New(nPI + nGates + 2)
	for i := 0; i < nPI; i++ {
		c.AddPI(fmt.Sprintf("pi%d", i))
	}
	c.AddGate(circuit.Const0)
	c.AddGate(circuit.Const1)
	types := []circuit.GateType{circuit.And, circuit.Nand, circuit.Or, circuit.Nor,
		circuit.Xor, circuit.Xnor, circuit.Not, circuit.Buf}
	for g := 0; g < nGates; g++ {
		t := types[rng.Intn(len(types))]
		nf := 1
		if t.MaxFanin() < 0 {
			nf = 2 + rng.Intn(2)
		}
		fanin := make([]circuit.Line, nf)
		for i := range fanin {
			fanin[i] = circuit.Line(rng.Intn(c.NumLines()))
		}
		c.AddGate(t, fanin...)
	}
	for k := 1 + rng.Intn(4); k > 0; k-- {
		c.MarkPO(circuit.Line(c.NumLines() - 1 - rng.Intn(min(nGates, 8)+1)))
	}
	return c
}

// candidates returns the differential corpus for spec: a clone and an
// optimizer rewrite (equivalent), injected design errors, one gate with its
// output inverted, and each PO inverted in turn, so that a comparison that
// skips any one PO is caught.
func candidates(spec *circuit.Circuit, seed int64) []*circuit.Circuit {
	out := []*circuit.Circuit{spec.Clone()}
	if oc, err := opt.Optimize(spec); err == nil {
		out = append(out, oc)
	}
	for k := int64(0); k < 3; k++ {
		if bad, _, err := errmodel.Inject(spec, 1, errmodel.InjectOptions{Seed: seed*31 + k}); err == nil {
			out = append(out, bad)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	flip := spec.Clone()
	for tries := 0; tries < 8; tries++ {
		l := circuit.Line(rng.Intn(flip.NumLines()))
		if inv, ok := flip.Type(l).InversionOf(); ok {
			flip.SetType(l, inv)
			out = append(out, flip)
			break
		}
	}
	for j := range spec.POs {
		inv := spec.Clone()
		inv.POs[j] = inv.AddGate(circuit.Not, inv.POs[j])
		out = append(out, inv)
	}
	return out
}

// compareVerdicts checks one pair both ways: Check, which simulates narrow
// pairs, against a SAT-only check from a fresh session. The verdicts must
// agree; a simulated verdict must be a proof of equivalence with no search;
// anything else must be the SAT result itself, counterexample and search
// counts included.
func compareVerdicts(t *testing.T, name string, spec, cand *circuit.Circuit) {
	t.Helper()
	got, err := Check(spec, cand, Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := checkSAT(spec, cand, Options{})
	if err != nil {
		t.Fatalf("%s: SAT: %v", name, err)
	}
	if got.Aborted || want.Aborted {
		t.Fatalf("%s: aborted (Check %v, SAT %v)", name, got.Aborted, want.Aborted)
	}
	if got.Equivalent != want.Equivalent {
		t.Fatalf("%s: Check says equivalent=%v by %v, SAT says %v", name, got.Equivalent, got.Method, want.Equivalent)
	}
	simulable := (&Session{spec: spec}).simulable(cand)
	if want.Equivalent && simulable {
		if got.Method != MethodSimulation || got.Conflicts != 0 || got.Decisions != 0 {
			t.Fatalf("%s: narrow equivalent pair decided by %v with %d conflicts, want simulation with 0",
				name, got.Method, got.Conflicts)
		}
		return
	}
	if got.Method != MethodSAT {
		t.Fatalf("%s: decided by %v, want SAT (equivalent=%v, simulable=%v)", name, got.Method, got.Equivalent, simulable)
	}
	if !reflect.DeepEqual(got.Counterexample, want.Counterexample) ||
		got.Conflicts != want.Conflicts || got.Decisions != want.Decisions {
		t.Fatalf("%s: SAT after the simulation differs from SAT alone: cex %v/%v conflicts %d/%d decisions %d/%d",
			name, got.Counterexample, want.Counterexample, got.Conflicts, want.Conflicts, got.Decisions, want.Decisions)
	}
}

// TestExhaustiveMatchesSAT is the differential test of the exhaustive
// verdict against the SAT verdict over the session corpus (optimizer
// rewrites, injected errors, inverted gates and POs) on random circuits of
// every gate type at PI counts 0, 1, 5, 6, 7 (either side of one word), the
// bound and one past it, and on the benchmark's small-input circuits.
func TestExhaustiveMatchesSAT(t *testing.T) {
	type spec struct {
		name string
		c    *circuit.Circuit
	}
	var specs []spec
	for _, nPI := range []int{0, 1, 5, 6, 7, exhaustiveMaxPIs, exhaustiveMaxPIs + 1} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(nPI)))
			specs = append(specs, spec{fmt.Sprintf("mixed/pi%d/s%d", nPI, seed), randomMixed(rng, nPI, 12+4*nPI)})
		}
	}
	specs = append(specs,
		spec{"alu4", gen.Alu(4)},
		spec{"mult4", gen.ArrayMultiplier(4)},
		spec{"ecc8", gen.ECC(8, false)},
		spec{"ecc8xor", gen.ECC(8, true)},
		spec{"rnd14", gen.Random(gen.RandomOptions{PIs: 14, Gates: 160, Seed: 14})},
	)
	pairs, simulated := 0, 0
	for si, sp := range specs {
		cands := candidates(sp.c, int64(si+1))
		// A CEGAR loop meets refuted candidates first and ends at its
		// first proof: through that point the session with simulation
		// must return exactly what a SAT-only session returns.
		ss, _ := NewSession(sp.c)
		ref, _ := NewSession(sp.c)
		inSync := true
		for ci, cand := range cands {
			name := fmt.Sprintf("%s cand %d", sp.name, ci)
			compareVerdicts(t, name, sp.c, cand)
			pairs++
			got, err := ss.Check(cand, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.check(cand, Options{}, false)
			if err != nil {
				t.Fatal(err)
			}
			if got.Equivalent != want.Equivalent {
				t.Fatalf("%s: session says %v, SAT session says %v", name, got.Equivalent, want.Equivalent)
			}
			if got.Method == MethodSimulation {
				simulated++
				inSync = false
			} else if inSync && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: session result %+v, SAT session %+v", name, got, want)
			}
		}
		if ss.Checks != len(cands) || ss.Simulated > ss.Checks {
			t.Fatalf("%s: Checks=%d Simulated=%d over %d candidates", sp.name, ss.Checks, ss.Simulated, len(cands))
		}
	}
	if simulated == 0 {
		t.Fatal("no check was decided by simulation")
	}
	t.Logf("%d pairs, %d session checks simulated", pairs, simulated)
}

// TestCheckCancelledBeforeStart: a check whose context is already cancelled
// returns Aborted and Cancelled with no verdict, whether it would have
// simulated or gone to SAT.
func TestCheckCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []*circuit.Circuit{
		gen.Alu(4), // within the bound: would simulate
		gen.Random(gen.RandomOptions{PIs: exhaustiveMaxPIs + 1, Gates: 40, Seed: 3}), // SAT
	} {
		res, err := Check(c, c.Clone(), Options{Ctx: ctx})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Aborted || !res.Cancelled || res.Equivalent || res.Counterexample != nil {
			t.Errorf("%d PIs: %+v, want Aborted and Cancelled with no verdict", len(c.PIs), res)
		}
	}
}

// TestExhaustiveBound: the bound is on the reference's PI count and on the
// value-matrix size, and a Session outside it never simulates.
func TestExhaustiveBound(t *testing.T) {
	wide := gen.Random(gen.RandomOptions{PIs: exhaustiveMaxPIs + 1, Gates: 30, Seed: 5})
	if (&Session{spec: wide}).simulable(wide) {
		t.Errorf("%d PIs simulable", len(wide.PIs))
	}
	narrow := gen.Random(gen.RandomOptions{PIs: exhaustiveMaxPIs, Gates: 30, Seed: 5})
	if !(&Session{spec: narrow}).simulable(narrow) {
		t.Errorf("%d PIs and %d lines not simulable", len(narrow.PIs), narrow.NumLines())
	}
	words := (1 << exhaustiveMaxPIs) / 64 // words per line at the PI bound
	big := gen.Random(gen.RandomOptions{PIs: exhaustiveMaxPIs, Gates: exhaustiveMaxWords / words, Seed: 5})
	if (&Session{spec: narrow}).simulable(big) {
		t.Errorf("candidate of %d lines at %d PIs simulable", big.NumLines(), exhaustiveMaxPIs)
	}
}

// FuzzExhaustiveVerdict compares the exhaustive verdict with the SAT
// verdict on random mixed-gate circuits from 0 to one past the PI bound,
// against each corpus candidate.
func FuzzExhaustiveVerdict(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		for _, nPI := range []uint8{0, 1, 5, 6, 7, exhaustiveMaxPIs, exhaustiveMaxPIs + 1} {
			f.Add(seed, nPI, uint8(20))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, nPI, nGates uint8) {
		rng := rand.New(rand.NewSource(seed))
		spec := randomMixed(rng, int(nPI)%(exhaustiveMaxPIs+2), 1+int(nGates)%48)
		for ci, cand := range candidates(spec, seed) {
			compareVerdicts(t, fmt.Sprintf("seed %d cand %d", seed, ci), spec, cand)
		}
	})
}

// BenchmarkProofMethods is the measurement behind exhaustiveMaxPIs and
// exhaustiveMaxWords: the cost of proving a circuit equivalent to a clone of
// itself by exhaustive simulation (per candidate, the reference's outputs
// already cached, as in a Session) and by a fresh SAT miter, on the
// benchmark's small-input circuits and on wider and larger ones. A clone is
// SAT's easiest equivalent candidate, so the SAT times are lower bounds.
func BenchmarkProofMethods(b *testing.B) {
	for _, bc := range []struct {
		name string
		c    *circuit.Circuit
	}{
		{"alu4", gen.Alu(4)},
		{"mult4", gen.ArrayMultiplier(4)},
		{"ecc8", gen.ECC(8, false)},
		{"rnd14", gen.Random(gen.RandomOptions{PIs: 14, Gates: 160, Seed: 14})},
		{"rnd300", gen.Random(gen.RandomOptions{PIs: 16, Gates: 300, Seed: 300})},
		{"mult8", gen.ArrayMultiplier(8)},
		{"rnd16x1000", gen.Random(gen.RandomOptions{PIs: 16, Gates: 1000, Seed: 16})},
		{"rnd18x1000", gen.Random(gen.RandomOptions{PIs: 18, Gates: 1000, Seed: 18})},
		{"rnd20x1000", gen.Random(gen.RandomOptions{PIs: 20, Gates: 1000, Seed: 20})},
	} {
		cand := bc.c.Clone()
		b.Run(fmt.Sprintf("%s/pi%d/sim", bc.name, len(bc.c.PIs)), func(b *testing.B) {
			ss, _ := NewSession(bc.c)
			ss.sameOnAllInputs(cand) // fill the reference's outputs
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !ss.sameOnAllInputs(cand) {
					b.Fatal("clone differs")
				}
			}
		})
		b.Run(fmt.Sprintf("%s/pi%d/sat", bc.name, len(bc.c.PIs)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res, err := checkSAT(bc.c, cand, Options{}); err != nil || !res.Equivalent {
					b.Fatal("clone not proven")
				}
			}
		})
	}
}
