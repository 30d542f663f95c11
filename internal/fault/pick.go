package fault

import (
	"math/rand"

	"dedc/internal/circuit"
	"dedc/internal/sim"
)

// PickObservable draws k distinct-site stuck-at faults whose joint injection
// visibly changes the circuit's behaviour on a shared random vector probe —
// the scenario builder behind cmd/inject. Selection is deterministic in
// seed. It returns nil when no observable combination is found within a
// bounded number of attempts (k larger than the observable site population,
// or pathological masking).
func PickObservable(c *circuit.Circuit, k int, seed int64) []Fault {
	rng := rand.New(rand.NewSource(seed))
	sites := Sites(c)
	n := 1024
	pi := sim.RandomPatterns(len(c.PIs), n, seed^0x51ab)
	goodOut := sim.Outputs(c, sim.Simulate(c, pi, n))
	for tries := 0; tries < 100; tries++ {
		seen := map[Site]bool{}
		var fs []Fault
		for len(fs) < k {
			s := sites[rng.Intn(len(sites))]
			if seen[s] {
				continue
			}
			seen[s] = true
			fs = append(fs, Fault{Site: s, Value: rng.Intn(2) == 1})
		}
		fc := Inject(c, fs...)
		badOut := sim.Outputs(fc, sim.Simulate(fc, pi, n))
		for _, w := range sim.DiffMask(goodOut, badOut, n) {
			if w != 0 {
				return fs
			}
		}
	}
	return nil
}
