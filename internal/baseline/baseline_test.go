package baseline

import (
	"testing"

	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/sim"
)

func TestBruteForceFindsMinimalTuples(t *testing.T) {
	c := gen.Random(gen.RandomOptions{PIs: 5, Gates: 20, Seed: 9})
	n := 256
	pi := sim.RandomPatterns(len(c.PIs), n, 7)
	sites := fault.Sites(c)
	f1 := fault.Fault{Site: sites[3], Value: true}
	device := fault.Inject(c, f1)
	devOut := sim.Outputs(device, sim.Simulate(device, pi, n))
	tuples := BruteForceTuples(c, devOut, pi, n, 2)
	if len(tuples) == 0 {
		t.Fatal("no tuples found")
	}
	for _, tu := range tuples {
		if len(tu) != 1 {
			t.Fatalf("non-minimal tuple %v returned", tu)
		}
	}
	found := false
	for _, tu := range tuples {
		if tu[0] == f1 {
			found = true
		}
	}
	if !found {
		t.Fatal("actual fault missing from brute force result")
	}
}

func TestBruteForceDoubleFault(t *testing.T) {
	c := gen.Random(gen.RandomOptions{PIs: 4, Gates: 12, Seed: 17})
	n := 256
	pi := sim.RandomPatterns(len(c.PIs), n, 3)
	sites := fault.Sites(c)
	// Choose two faults that are not individually explicable: verify the
	// brute force returns pairs.
	f1 := fault.Fault{Site: sites[1], Value: true}
	f2 := fault.Fault{Site: sites[len(sites)-2], Value: false}
	device := fault.Inject(c, f1, f2)
	devOut := sim.Outputs(device, sim.Simulate(device, pi, n))
	tuples := BruteForceTuples(c, devOut, pi, n, 2)
	if len(tuples) == 0 {
		t.Skip("behaviour explained by nothing within size 2 (masking); skip")
	}
	size := len(tuples[0])
	for _, tu := range tuples {
		if len(tu) != size {
			t.Fatalf("mixed tuple sizes in result")
		}
		fc := fault.Inject(c, tu...)
		fcOut := sim.Outputs(fc, sim.Simulate(fc, pi, n))
		for _, w := range sim.DiffMask(fcOut, devOut, n) {
			if w != 0 {
				t.Fatalf("tuple %v does not explain device", tu)
			}
		}
	}
}
