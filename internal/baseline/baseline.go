// Package baseline provides the reference diagnosis method the incremental
// algorithm is compared against: exhaustive brute-force tuple enumeration,
// used to certify the exactness claims of Table 1 on small circuits.
package baseline

import (
	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/sim"
)

// BruteForceTuples enumerates every fault tuple of size at most k whose
// injection reproduces the device outputs, returning only the tuples of
// minimal size (the same contract as the incremental algorithm's exact
// mode). Exponential — intended for certification on small circuits.
func BruteForceTuples(c *circuit.Circuit, deviceOut [][]uint64, pi [][]uint64, n int, k int) []fault.Tuple {
	faults := fault.AllFaults(c)
	var found []fault.Tuple
	var cur []fault.Fault
	var rec func(start, size int)
	matches := func() bool {
		fc := fault.Inject(c, cur...)
		out := sim.Outputs(fc, sim.Simulate(fc, pi, n))
		m := sim.DiffMask(out, deviceOut, n)
		for _, w := range m {
			if w != 0 {
				return false
			}
		}
		return true
	}
	rec = func(start, size int) {
		if len(found) > 0 && len(cur) >= len(found[0]) {
			return // only minimal size wanted; found[0] is minimal by search order
		}
		if size == 0 {
			return
		}
		for i := start; i < len(faults); i++ {
			cur = append(cur, faults[i])
			if matches() {
				t := append(fault.Tuple(nil), cur...)
				found = append(found, t.Canon())
			} else {
				rec(i+1, size-1)
			}
			cur = cur[:len(cur)-1]
		}
	}
	// Iterative deepening guarantees minimal size first.
	for size := 1; size <= k && len(found) == 0; size++ {
		rec(0, size)
	}
	if len(found) == 0 {
		return nil
	}
	minSize := len(found[0])
	var out []fault.Tuple
	seen := map[string]bool{}
	for _, t := range found {
		if len(t) != minSize {
			continue
		}
		key := t.Key()
		if !seen[key] {
			seen[key] = true
			out = append(out, t)
		}
	}
	return out
}
