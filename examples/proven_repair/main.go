// Proven repair: the paper's simulation-based DEDC upgraded with formal
// certification. A weak vector set makes the first repair plausible-but-
// wrong; the built-in SAT equivalence checker produces counterexample
// inputs that are folded back into V until the repair is PROVEN equivalent
// to the specification (here by exhaustive simulation, the ALU having few
// enough inputs) — counterexample-guided refinement over the paper's
// engine.
package main

import (
	"fmt"
	"log"

	"dedc"
)

func main() {
	spec := dedc.Alu(6)
	impl, mods, err := dedc.InjectErrors(spec, 2, 314)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("injected errors:")
	for _, m := range mods {
		fmt.Printf("  %v\n", m)
	}

	// A deliberately weak vector set: only 24 random patterns.
	vecs := dedc.RandomVectors(spec, 24, 9)
	fmt.Printf("\nstarting with |V| = %d vectors (weak on purpose)\n", vecs.N)

	res, err := dedc.RepairProven(impl, spec, vecs, dedc.Options{MaxErrors: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrepair loop: %d iteration(s), %d counterexample(s) folded into V\n",
		res.Iterations, res.AddedVectors)
	fmt.Println("final corrections:")
	for _, c := range res.Corrections {
		fmt.Printf("  %v\n", c)
	}
	if !res.Proven {
		log.Fatal("repair could not be certified")
	}

	// Independent certification.
	eq, err := dedc.ProveEquivalent(res.Repaired, spec, 0)
	if err != nil {
		log.Fatal(err)
	}
	if !eq.Equivalent {
		log.Fatal("certification failed")
	}
	fmt.Printf("\nPROVEN equivalent to the specification (proof by %v, %d SAT conflicts)\n", eq.Method, eq.Conflicts)
}
