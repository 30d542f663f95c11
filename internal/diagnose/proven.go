package diagnose

import (
	"fmt"
	"time"

	"dedc/internal/circuit"
	"dedc/internal/equiv"
	"dedc/internal/sim"
)

// ProvenResult is the outcome of the counterexample-guided repair loop.
type ProvenResult struct {
	// RepairResult is the final round's repair. Its Stats cover every
	// round: each round's search is folded in with Stats.Merge.
	*RepairResult
	// Proven is set when the final repair was proved equivalent to the
	// specification by exhaustive simulation or SAT (not merely matching
	// on the vector set).
	Proven bool
	// ProofTime is the wall-clock time of the equivalence checks, summed
	// over all rounds. Stats does not include it.
	ProofTime time.Duration
	// Iterations counts repair rounds (1 = the first repair already proved).
	Iterations int
	// AddedVectors counts counterexamples folded back into V.
	AddedVectors int
}

// RepairProven runs DEDC with formal certification: repair on the vector
// set, then check the repaired netlist against the specification circuit
// (equiv.Session: proved by exhaustive simulation or SAT, refuted by SAT). A
// counterexample becomes a new vector in V and the loop repeats — the
// classic counterexample-guided refinement that upgrades the paper's
// simulation-based method into a proof-producing one. maxIters bounds the
// loop; satConflicts bounds each SAT proof attempt (0 = unlimited). Malformed
// inputs, or a spec whose interface differs from impl's, return a sentinel
// error (circuit.ErrInvalidNetlist, circuit.ErrCombinationalCycle,
// ErrInvalidVectors).
func RepairProven(impl, spec *circuit.Circuit, pi [][]uint64, n int, opt Options, maxIters int, satConflicts int64) (*ProvenResult, error) {
	if err := validateReference(impl, spec, pi, n); err != nil {
		return nil, err
	}
	if maxIters <= 0 {
		maxIters = 64
	}
	curPI, curN := pi, n
	res := &ProvenResult{}
	// One equivalence session spans the whole refinement loop: the spec is
	// encoded (and, if narrow, simulated) once, each iteration's refuted
	// candidate rides its own activation-literal group, and clauses learnt
	// refuting round k's repair still prune round k+1's search.
	session, err := equiv.NewSession(spec)
	if err != nil {
		return nil, err
	}
	var total Stats
	for iter := 1; iter <= maxIters; iter++ {
		res.Iterations = iter
		specOut := DeviceOutputs(spec, curPI, curN)
		rep, err := Repair(impl, specOut, curPI, curN, opt)
		if err != nil {
			return nil, fmt.Errorf("diagnose: iteration %d: %w", iter, err)
		}
		total = total.Merge(rep.Stats)
		rep.Stats = total
		res.RepairResult = rep
		t0 := time.Now()
		eq, err := session.Check(rep.Repaired, equiv.Options{MaxConflicts: satConflicts})
		res.ProofTime += time.Since(t0)
		if err != nil {
			return nil, err
		}
		if eq.Aborted {
			return res, nil // repaired on V, proof inconclusive
		}
		if eq.Equivalent {
			res.Proven = true
			return res, nil
		}
		var added int
		curPI, curN, added = foldCounterexample(curPI, curN, eq.Counterexample, iter)
		res.AddedVectors += added
	}
	return res, nil
}

// foldCounterexample folds iteration iter's distinguishing input back into
// V, along with a few single-bit perturbations of it — neighbours of a
// counterexample often separate further near-miss repairs and save whole
// refinement rounds. It returns the grown set and the number of vectors
// added.
func foldCounterexample(pi [][]uint64, n int, cex []bool, iter int) ([][]uint64, int, int) {
	pi, n = AppendPattern(pi, n, cex)
	added := 1
	for i := 0; i < len(cex) && i < 8; i++ {
		nb := append([]bool(nil), cex...)
		nb[(iter*7+i*13)%len(nb)] = !nb[(iter*7+i*13)%len(nb)]
		pi, n = AppendPattern(pi, n, nb)
		added++
	}
	return pi, n, added
}

// AppendPattern extends a packed vector set with one additional pattern.
func AppendPattern(pi [][]uint64, n int, bits []bool) ([][]uint64, int) {
	newN := n + 1
	w := sim.Words(newN)
	out := make([][]uint64, len(pi))
	for i := range pi {
		row := make([]uint64, w)
		copy(row, pi[i])
		if bits[i] {
			row[n/64] |= 1 << (uint(n) % 64)
		}
		out[i] = row
	}
	return out, newN
}
