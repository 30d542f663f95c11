package diagnose

import (
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/equiv"
	"dedc/internal/gen"
	"dedc/internal/sat"
	"dedc/internal/sim"
)

// satEquivalent decides a ≡ b with a fresh miter that only the SAT solver
// sees, so a certification here never rests on the exhaustive simulation
// that equiv proves narrow pairs with. aborted reports that maxConflicts
// (0 = unlimited) ran out first.
func satEquivalent(t *testing.T, a, b *circuit.Circuit, maxConflicts int64) (equivalent, aborted bool) {
	t.Helper()
	if len(a.PIs) != len(b.PIs) || len(a.POs) != len(b.POs) {
		t.Fatalf("interfaces differ: %d/%d PIs, %d/%d POs", len(a.PIs), len(b.PIs), len(a.POs), len(b.POs))
	}
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
	s.MaxConflicts = maxConflicts
	switch s.Solve() {
	case sat.Unsat:
		return true, false
	case sat.Sat:
		return false, false
	}
	return false, true
}

func TestAppendPattern(t *testing.T) {
	pi := [][]uint64{{0b01}, {0b10}}
	out, n := AppendPattern(pi, 2, []bool{true, false})
	if n != 3 {
		t.Fatalf("n = %d", n)
	}
	if out[0][0] != 0b101 || out[1][0] != 0b010 {
		t.Fatalf("rows = %03b %03b", out[0][0], out[1][0])
	}
	// Crossing a word boundary.
	pi64 := [][]uint64{make([]uint64, 1)}
	out64, n64 := AppendPattern(pi64, 64, []bool{true})
	if n64 != 65 || len(out64[0]) != 2 || out64[0][1] != 1 {
		t.Fatalf("word-boundary append wrong: %v", out64)
	}
}

func TestRepairProvenConverges(t *testing.T) {
	// With a deliberately tiny initial vector set, the first repair often
	// matches V but not the full function; the CEGAR loop must converge to
	// a PROVEN repair.
	spec := gen.Alu(4)
	proved := 0
	for seed := int64(0); seed < 4; seed++ {
		bad, _, err := injectK(spec, 1, 700+seed)
		if err != nil {
			continue
		}
		pi := sim.RandomPatterns(len(spec.PIs), 16, seed) // tiny V on purpose
		res, err := RepairProven(bad, spec, pi, 16, Options{MaxErrors: 2}, 32, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Proven {
			t.Fatalf("seed %d: repair not proven after %d iterations", seed, res.Iterations)
		}
		if res.ProofTime <= 0 {
			t.Fatalf("seed %d: ProofTime %v over %d rounds", seed, res.ProofTime, res.Iterations)
		}
		// Certify independently.
		if eq, aborted := satEquivalent(t, res.Repaired, spec, 0); aborted || !eq {
			t.Fatalf("seed %d: final repair not equivalent (aborted %v)", seed, aborted)
		}
		proved++
		if res.AddedVectors > 0 {
			t.Logf("seed %d: proven after folding %d counterexamples into V", seed, res.AddedVectors)
		}
	}
	if proved == 0 {
		t.Skip("no injectable cases")
	}
}

func TestRepairProvenFirstTryWithGoodVectors(t *testing.T) {
	// With a strong vector set the first repair usually proves immediately.
	spec := gen.RippleAdder(4)
	bad, _, err := injectK(spec, 1, 55)
	if err != nil {
		t.Fatal(err)
	}
	pi := sim.RandomPatterns(len(spec.PIs), 1024, 9)
	res, err := RepairProven(bad, spec, pi, 1024, Options{MaxErrors: 2}, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven {
		t.Fatal("not proven")
	}
	if res.Iterations != 1 || res.AddedVectors != 0 {
		t.Logf("took %d iterations, %d added vectors (acceptable)", res.Iterations, res.AddedVectors)
	}
}

// TestRepairProvenStatsCumulative checks that a multi-round refinement
// reports the work of every round: it replays the loop round by round with
// the same SAT session sequence and sums each round's Repair stats.
func TestRepairProvenStatsCumulative(t *testing.T) {
	spec := gen.Alu(4)
	opt := Options{MaxErrors: 2}
	for seed := int64(0); seed < 8; seed++ {
		bad, _, err := injectK(spec, 1, 700+seed)
		if err != nil {
			continue
		}
		pi := sim.RandomPatterns(len(spec.PIs), 16, seed)
		res, err := RepairProven(bad, spec, pi, 16, opt, 32, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Iterations < 2 {
			continue
		}

		session, err := equiv.NewSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		var sum Stats
		var last int
		curPI, curN := pi, 16
		for iter := 1; iter <= res.Iterations; iter++ {
			rep, err := Repair(bad, DeviceOutputs(spec, curPI, curN), curPI, curN, opt)
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, iter, err)
			}
			sum, last = sum.Merge(rep.Stats), rep.Stats.Nodes
			eq, err := session.Check(rep.Repaired, equiv.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if eq.Equivalent {
				// The session may have proved this by simulation;
				// certify it by SAT alone.
				if ok, aborted := satEquivalent(t, rep.Repaired, spec, 0); aborted || !ok {
					t.Fatalf("seed %d round %d: session proof not confirmed by SAT (aborted %v)", seed, iter, aborted)
				}
				break
			}
			curPI, curN, _ = foldCounterexample(curPI, curN, eq.Counterexample, iter)
		}
		if got, want := res.Stats.Deterministic(), sum.Deterministic(); got != want {
			t.Fatalf("seed %d, %d rounds: Stats = %+v, want the sum over rounds %+v", seed, res.Iterations, got, want)
		}
		if res.Stats.Nodes <= last {
			t.Fatalf("seed %d: Stats.Nodes = %d, no more than the last round's %d", seed, res.Stats.Nodes, last)
		}
		return
	}
	t.Fatal("no seed needed more than one refinement round")
}
