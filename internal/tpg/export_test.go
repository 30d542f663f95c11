package tpg

import (
	"context"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/sim"
)

// ProveUntestable runs the redundancy proof of BuildVectors on the given
// faults of the combinational circuit c, with candidates taken from random
// fault-free patterns, and reports which faults it proves untestable. It
// lets the oracle tests in package tpg_test check the proof's verdicts.
func ProveUntestable(c *circuit.Circuit, random int, seed int64, faults []fault.Fault) []bool {
	pi := sim.RandomPatterns(len(c.PIs), random, seed)
	p := newProver(context.Background(), sim.NewEngine(c, pi, random))
	proven := make([]bool, len(faults))
	for i, f := range faults {
		proven[i] = p.untestable(f)
	}
	return proven
}
