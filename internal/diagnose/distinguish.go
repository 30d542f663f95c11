package diagnose

import (
	"fmt"

	"dedc/internal/circuit"
	"dedc/internal/equiv"
	"dedc/internal/fault"
	"dedc/internal/sim"
)

// Distinguish decides whether two fault tuples are functionally equivalent
// explanations on netlist c: it checks the two faulty machines against each
// other with equiv.Check (proved by exhaustive simulation or SAT). When they
// differ, the returned vector — found by SAT — drives them apart: a
// diagnostic test pattern in the classical sense. maxConflicts bounds the
// SAT proof (0 = unlimited).
func Distinguish(c *circuit.Circuit, a, b fault.Tuple, maxConflicts int64) (vector []bool, equivalent bool, err error) {
	ca := fault.Inject(c, a...)
	cb := fault.Inject(c, b...)
	res, err := equiv.Check(ca, cb, equiv.Options{MaxConflicts: maxConflicts})
	if err != nil {
		return nil, false, err
	}
	if res.Aborted {
		return nil, false, fmt.Errorf("diagnose: distinguishing proof aborted")
	}
	if res.Equivalent {
		return nil, true, nil
	}
	return res.Counterexample, false, nil
}

// PartitionTuples groups fault tuples into provably equivalent classes
// (each class's members are pairwise functionally identical machines). The
// classes refine the paper's "equivalent fault classes" from
// indistinguishable-on-V to indistinguishable-ever.
func PartitionTuples(c *circuit.Circuit, tuples []fault.Tuple, maxConflicts int64) ([][]fault.Tuple, error) {
	var classes [][]fault.Tuple
	var reps []fault.Tuple
	for _, t := range tuples {
		placed := false
		for i, r := range reps {
			_, eq, err := Distinguish(c, t, r, maxConflicts)
			if err != nil {
				return nil, err
			}
			if eq {
				classes[i] = append(classes[i], t)
				placed = true
				break
			}
		}
		if !placed {
			reps = append(reps, t)
			classes = append(classes, []fault.Tuple{t})
		}
	}
	return classes, nil
}

// AdaptiveResult extends StuckAtResult with the adaptive loop's bookkeeping.
type AdaptiveResult struct {
	*StuckAtResult
	// Classes partitions the final tuples into proven-equivalent groups.
	Classes [][]fault.Tuple
	// AddedVectors counts distinguishing patterns folded into V.
	AddedVectors int
	// Iterations counts diagnose rounds.
	Iterations int
}

// DiagnoseAdaptive performs exact stuck-at diagnosis with adaptive
// diagnostic pattern generation: whenever the candidate tuples are not all
// functionally equivalent, a SAT-generated distinguishing vector is applied
// to the device (which, in this workflow, is simulable) and folded into V,
// shrinking the candidate set — the classical adaptive-diagnosis refinement
// over static dictionaries. The loop ends when every surviving tuple is
// provably equivalent to the others (perfect resolution) or maxIters is
// reached. Malformed inputs, or a device whose interface differs from the
// netlist's, return a sentinel error (circuit.ErrInvalidNetlist,
// circuit.ErrCombinationalCycle, ErrInvalidVectors).
func DiagnoseAdaptive(netlist, device *circuit.Circuit, pi [][]uint64, n int, opt Options, maxIters int, maxConflicts int64) (*AdaptiveResult, error) {
	if err := validateReference(netlist, device, pi, n); err != nil {
		return nil, err
	}
	if maxIters <= 0 {
		maxIters = 16
	}
	curPI, curN := pi, n
	out := &AdaptiveResult{}
	for iter := 1; iter <= maxIters; iter++ {
		out.Iterations = iter
		devOut := DeviceOutputs(device, curPI, curN)
		res := DiagnoseStuckAt(netlist, devOut, curPI, curN, opt)
		out.StuckAtResult = res
		if len(res.Tuples) <= 1 {
			out.Classes = singletonClasses(res.Tuples)
			return out, nil
		}
		// Find a pair of non-equivalent tuples; its distinguishing vector
		// becomes the next diagnostic pattern.
		var distVec []bool
		for i := 1; i < len(res.Tuples) && distVec == nil; i++ {
			v, eq, err := Distinguish(netlist, res.Tuples[0], res.Tuples[i], maxConflicts)
			if err != nil {
				return nil, err
			}
			if !eq {
				distVec = v
			}
		}
		if distVec == nil {
			// tuples[0] equivalent to all others: certify the partition.
			classes, err := PartitionTuples(netlist, res.Tuples, maxConflicts)
			if err != nil {
				return nil, err
			}
			out.Classes = classes
			return out, nil
		}
		curPI, curN = AppendPattern(curPI, curN, distVec)
		out.AddedVectors++
	}
	classes, err := PartitionTuples(netlist, out.Tuples, maxConflicts)
	if err != nil {
		return nil, err
	}
	out.Classes = classes
	return out, nil
}

func singletonClasses(tuples []fault.Tuple) [][]fault.Tuple {
	var out [][]fault.Tuple
	for _, t := range tuples {
		out = append(out, []fault.Tuple{t})
	}
	return out
}

// ExplainsDevice verifies a tuple reproduces the device responses on a
// vector set (a convenience used by tests and the adaptive loop's callers).
func ExplainsDevice(c *circuit.Circuit, t fault.Tuple, devOut [][]uint64, pi [][]uint64, n int) bool {
	fc := fault.Inject(c, t...)
	out := DeviceOutputs(fc, pi, n)
	m := sim.DiffMask(out, devOut, n)
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}
