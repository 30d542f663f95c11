// Command equiv formally checks two .bench netlists for functional
// equivalence: by exhaustive simulation when they have few inputs, otherwise
// with the built-in SAT solver, which also finds every counterexample. The
// verdict line names the method. Exit code 0 = equivalent, 1 = not
// equivalent (counterexample printed), 2 = inconclusive/error.
//
// Usage:
//
//	equiv -a good.bench -b optimized.bench [-conflicts 1000000]
package main

import (
	"flag"
	"fmt"
	"os"

	"dedc/internal/bench"
	"dedc/internal/circuit"
	"dedc/internal/equiv"
	"dedc/internal/scan"
)

func main() {
	aPath := flag.String("a", "", "first .bench netlist (required)")
	bPath := flag.String("b", "", "second .bench netlist (required)")
	conflicts := flag.Int64("conflicts", 0, "SAT conflict budget (0 = unlimited)")
	flag.Parse()
	if *aPath == "" || *bPath == "" {
		fatalf("-a and -b are required")
	}
	a := read(*aPath)
	b := read(*bPath)
	if a.IsSequential() != b.IsSequential() {
		fatalf("one netlist is sequential and the other is not")
	}
	if a.IsSequential() {
		a = convert(a)
		b = convert(b)
	}
	res, err := equiv.Check(a, b, equiv.Options{MaxConflicts: *conflicts})
	if err != nil {
		fatalf("%v", err)
	}
	switch {
	case res.Aborted:
		fmt.Printf("INCONCLUSIVE after %d conflicts\n", res.Conflicts)
		os.Exit(2)
	case res.Equivalent && res.Method == equiv.MethodSimulation:
		fmt.Printf("EQUIVALENT (proof: exhaustive simulation of %d input patterns)\n", uint64(1)<<len(a.PIs))
	case res.Equivalent:
		fmt.Printf("EQUIVALENT (proof: sat, %d conflicts, %d decisions)\n", res.Conflicts, res.Decisions)
	default:
		fmt.Printf("NOT EQUIVALENT (sat) — distinguishing input:\n")
		for i, pi := range a.PIs {
			v := 0
			if res.Counterexample[i] {
				v = 1
			}
			fmt.Printf("  %s = %d\n", a.Name(pi), v)
		}
		os.Exit(1)
	}
}

func read(path string) *circuit.Circuit {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	c, err := bench.Read(f)
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	return c
}

func convert(c *circuit.Circuit) *circuit.Circuit {
	cv, err := scan.Convert(c)
	if err != nil {
		fatalf("%v", err)
	}
	return cv.Comb
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "equiv: "+format+"\n", args...)
	os.Exit(2)
}
