package equiv

import (
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/errmodel"
	"dedc/internal/gen"
	"dedc/internal/opt"
	"dedc/internal/sim"
)

// TestSessionMatchesFreshCheck is the incremental-vs-fresh parity contract
// of the solver: over a corpus of candidates — optimizer rewrites
// (equivalent) and injected errors (not) — one long-lived Session must
// return the same SAT verdict as a from-scratch SAT check, and every
// counterexample must actually distinguish the circuits. Both sides skip the
// exhaustive simulation so that the comparison with it stays meaningful.
func TestSessionMatchesFreshCheck(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		spec := gen.Random(gen.RandomOptions{PIs: 6, Gates: 40, Seed: seed})
		ss, err := NewSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		candidates := []*circuit.Circuit{spec.Clone()}
		if oc, err := opt.Optimize(spec); err == nil {
			candidates = append(candidates, oc)
		}
		for k := int64(0); k < 4; k++ {
			if bad, _, err := errmodel.Inject(spec, 1, errmodel.InjectOptions{Seed: seed*17 + k}); err == nil {
				candidates = append(candidates, bad)
			}
		}
		for ci, cand := range candidates {
			inc, err := ss.check(cand, Options{}, false)
			if err != nil {
				t.Fatalf("seed %d cand %d: session: %v", seed, ci, err)
			}
			fresh, err := checkSAT(spec, cand, Options{})
			if err != nil {
				t.Fatalf("seed %d cand %d: fresh: %v", seed, ci, err)
			}
			if inc.Aborted || fresh.Aborted {
				t.Fatalf("seed %d cand %d: aborted (inc %v fresh %v)", seed, ci, inc.Aborted, fresh.Aborted)
			}
			if inc.Equivalent != fresh.Equivalent {
				t.Errorf("seed %d cand %d: session says %v, fresh says %v",
					seed, ci, inc.Equivalent, fresh.Equivalent)
			}
			if want := sim.EquivalentExhaustive(spec, cand); inc.Equivalent != want {
				t.Errorf("seed %d cand %d: session says %v, exhaustive sim says %v",
					seed, ci, inc.Equivalent, want)
			}
			if !inc.Equivalent && !distinguishes(spec, cand, inc.Counterexample) {
				t.Errorf("seed %d cand %d: session counterexample does not distinguish", seed, ci)
			}
		}
	}
}

// distinguishes simulates both circuits on the single input pattern and
// reports whether any PO differs.
func distinguishes(a, b *circuit.Circuit, input []bool) bool {
	pi := make([][]uint64, len(a.PIs))
	for i, v := range input {
		pi[i] = make([]uint64, 1)
		if v {
			pi[i][0] = 1
		}
	}
	oa := sim.Outputs(a, sim.Simulate(a, pi, 1))
	ob := sim.Outputs(b, sim.Simulate(b, pi, 1))
	return sim.DiffMask(oa, ob, 1)[0] != 0
}

// TestSessionReusesEncoding: checking the same candidate structure twice
// reuses the encoded group (Reused counts it), and after an Unsat verdict the
// re-proof is pure propagation — zero additional conflicts.
func TestSessionReusesEncoding(t *testing.T) {
	spec := gen.Alu(4)
	ss, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ss.check(spec.Clone(), Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equivalent {
		t.Fatal("ALU not equivalent to its clone")
	}
	again, err := ss.check(spec.Clone(), Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Equivalent {
		t.Fatal("repeat check lost the verdict")
	}
	if ss.Checks != 2 || ss.Reused != 1 {
		t.Errorf("Checks=%d Reused=%d, want 2/1", ss.Checks, ss.Reused)
	}
	if again.Conflicts != 0 {
		t.Errorf("repeat proof searched again: %d conflicts", again.Conflicts)
	}
}

// TestSessionRebuild drives a session past sessionRebuildAfter distinct
// candidates: verdicts must stay correct straight through the internal
// solver rebuild.
func TestSessionRebuild(t *testing.T) {
	spec := gen.Random(gen.RandomOptions{PIs: 5, Gates: 25, Seed: 9})
	ss, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sessionRebuildAfter+4; i++ {
		var cand *circuit.Circuit
		wantEq := i%2 == 0
		if wantEq {
			cand = spec.Clone()
		} else {
			bad, _, ierr := errmodel.Inject(spec, 1, errmodel.InjectOptions{Seed: int64(100 + i)})
			if ierr != nil {
				continue
			}
			cand = bad
			wantEq = sim.EquivalentExhaustive(spec, cand) // injection may be masked
		}
		res, err := ss.check(cand, Options{}, false)
		if err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
		if res.Aborted || res.Equivalent != wantEq {
			t.Fatalf("check %d: got eq=%v aborted=%v, want eq=%v", i, res.Equivalent, res.Aborted, wantEq)
		}
	}
	if ss.encodes > sessionRebuildAfter {
		t.Errorf("session never rebuilt: %d encodes", ss.encodes)
	}
}

// TestSessionInterfaceErrors: PI/PO arity mismatches and sequential
// candidates fail up front with the same errors as the package-level Check.
func TestSessionInterfaceErrors(t *testing.T) {
	spec := gen.Alu(2)
	ss, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Check(gen.Alu(4), Options{}); err == nil {
		t.Error("arity mismatch accepted")
	}
	seq := gen.RandomSequential(gen.RandomOptions{PIs: len(spec.PIs), Gates: 20, Seed: 3}, 2)
	if _, err := ss.Check(seq, Options{}); err == nil {
		t.Error("sequential candidate accepted")
	}
	if _, err := NewSession(seq); err == nil {
		t.Error("sequential reference accepted")
	}
}

// TestSessionLearntCounter: the solver's live learnt-clause counter, which
// drives clause-database reduction, must match a from-scratch recount after
// every check of a long-lived session — through reductions, retired
// candidate groups and solver rebuilds alike.
func TestSessionLearntCounter(t *testing.T) {
	spec := gen.WallaceMultiplier(5)
	ss, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	candidates := []*circuit.Circuit{spec.Clone()}
	if oc, err := opt.Optimize(spec); err == nil {
		candidates = append(candidates, oc)
	}
	for k := int64(0); k < 4; k++ {
		if bad, _, err := errmodel.Inject(spec, 1, errmodel.InjectOptions{Seed: 40 + k}); err == nil {
			candidates = append(candidates, bad)
		}
	}
	for round := 0; round < 2; round++ {
		for ci, cand := range candidates {
			res, err := ss.check(cand, Options{}, false)
			if err != nil {
				t.Fatalf("round %d cand %d: %v", round, ci, err)
			}
			if res.Aborted {
				t.Fatalf("round %d cand %d: aborted", round, ci)
			}
			if err := ss.s.Validate(); err != nil {
				t.Fatalf("round %d cand %d: %v", round, ci, err)
			}
		}
	}
	if ss.s.LearntKept == 0 {
		t.Error("no clause-database reduction ran; the check exercised only additions")
	}
}
