package tpg

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/sim"
)

// buildVectorsReference is BuildVectors without the redundancy proof and
// without the narrowed re-simulation: every missed fault goes to PODEM, and
// every collapsed fault is fault-simulated again over the final set.
func buildVectorsReference(c *circuit.Circuit, opt Options) *Result {
	rng := rand.New(rand.NewSource(opt.Seed))
	res := &Result{PI: sim.RandomPatterns(len(c.PIs), opt.Random, rng.Int63()), N: opt.Random}
	reps, _ := fault.Collapse(c)
	det := fault.Detected(c, reps, res.PI, res.N)
	var missed []fault.Fault
	for i, f := range reps {
		if !det[i] {
			missed = append(missed, f)
		}
	}
	outs, backtracks, evals, _ := generateAll(context.Background(), c, missed, opt, nil)
	var extra [][]v3
	for _, o := range outs {
		switch o.result {
		case Untestable:
			res.Untestable++
		case Aborted:
			res.Aborted++
		case TestFound:
			res.Generated++
			extra = append(extra, o.assign)
		}
	}
	if len(extra) > 0 {
		appendPatterns(res, extra, rng)
	}
	res.Backtracks, res.Evals = backtracks, evals
	res.Coverage = fault.Coverage(fault.Detected(c, reps, res.PI, res.N))
	return res
}

// decided is everything BuildVectors decides, which the redundancy proof
// must leave unchanged: the vector set, the verdict counts and Coverage.
type decided struct {
	PI                                [][]uint64
	N, Generated, Untestable, Aborted int
	Coverage                          float64
}

func decisions(r *Result) decided {
	return decided{r.PI, r.N, r.Generated, r.Untestable, r.Aborted, r.Coverage}
}

// TestRedundancyProofDifferential: BuildVectors, with the redundancy proof
// and the narrowed re-simulation, decides exactly what the reference that
// sends every missed fault to PODEM decides, on the golden circuits, the
// service and repair shapes, an ALU and an ECC circuit with XOR trees.
func TestRedundancyProofDifferential(t *testing.T) {
	type tc struct {
		name   string
		c      *circuit.Circuit
		random int
	}
	var cases []tc
	for _, g := range goldenCircuits {
		cases = append(cases, tc{g.name, g.build(), g.random})
	}
	for s := int64(11); s <= 14; s++ {
		cases = append(cases,
			tc{"random16x200", gen.Random(gen.RandomOptions{PIs: 16, Gates: 200, Seed: s}), 1024},
			tc{"random20x300", gen.Random(gen.RandomOptions{PIs: 20, Gates: 300, Seed: s}), 1024})
	}
	cases = append(cases, tc{"alu4", gen.Alu(4), 16}, tc{"ecc8", gen.ECC(8, true), 16})
	proven, generated := 0, 0
	for _, k := range cases {
		opt := Options{Random: k.random, Seed: 1, Deterministic: true}
		got := BuildVectors(k.c, opt)
		want := buildVectorsReference(k.c, opt)
		if !reflect.DeepEqual(decisions(got), decisions(want)) {
			t.Errorf("%s: got N=%d generated=%d untestable=%d aborted=%d coverage=%v, reference N=%d generated=%d untestable=%d aborted=%d coverage=%v",
				k.name, got.N, got.Generated, got.Untestable, got.Aborted, got.Coverage,
				want.N, want.Generated, want.Untestable, want.Aborted, want.Coverage)
		}
		if got.Proven > got.Untestable || got.Backtracks > want.Backtracks || got.Evals > want.Evals {
			t.Errorf("%s: proven=%d untestable=%d, backtracks %d vs %d, evals %d vs %d",
				k.name, got.Proven, got.Untestable, got.Backtracks, want.Backtracks, got.Evals, want.Evals)
		}
		proven += got.Proven
		generated += got.Generated
	}
	if proven == 0 || generated == 0 {
		t.Fatalf("weak coverage: %d faults proven, %d tests generated", proven, generated)
	}
}
