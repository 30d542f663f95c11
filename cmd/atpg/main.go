// Command atpg builds a test vector set for a .bench netlist: random
// patterns plus an optional PODEM pass with fault dropping, reporting
// stuck-at coverage.
//
// Usage:
//
//	atpg -in ckt.bench -random 4096 -det -o ckt.vec
//	atpg ... -journal atpg.jsonl -cpuprofile cpu.out -v
//	atpg ... -debug-addr localhost:6060   # live /metrics, /debug/pprof/
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"dedc/internal/bench"
	"dedc/internal/telemetry"
	"dedc/internal/tpg"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("atpg", flag.ContinueOnError)
	in := fs.String("in", "", "input .bench netlist (required)")
	random := fs.Int("random", 1024, "number of random patterns")
	det := fs.Bool("det", false, "add PODEM tests for the faults the random patterns miss, after a redundancy proof")
	seed := fs.Int64("seed", 1, "random seed")
	backtracks := fs.Int("backtracks", 2000, "PODEM backtrack limit per fault")
	out := fs.String("o", "", "output vector file (default stdout)")
	var obs telemetry.CLI
	obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	rt, err := obs.Build(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atpg: %v\n", err)
		return 1
	}
	defer func() {
		if cerr := rt.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "atpg: %v\n", cerr)
		}
	}()
	log := rt.Logger

	fail := func(format string, args ...any) int {
		log.Error(fmt.Sprintf(format, args...))
		return 1
	}

	if *in == "" {
		return fail("-in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return fail("%v", err)
	}
	c, err := bench.Read(f)
	f.Close()
	if err != nil {
		return fail("%v", err)
	}
	if c.IsSequential() {
		return fail("sequential netlist; scan-convert it first")
	}
	ctx := rt.Context(context.Background())
	res := tpg.BuildVectorsContext(ctx, c, tpg.Options{
		Random:         *random,
		Seed:           *seed,
		Deterministic:  *det,
		BacktrackLimit: *backtracks,
	})
	log.Info("vector set built",
		"patterns", res.N,
		"coverage", res.Coverage,
		"generated", res.Generated,
		"untestable", res.Untestable,
		"proven", res.Proven,
		"aborted", res.Aborted,
		"backtracks", res.Backtracks)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := tpg.WriteVectors(w, c, res.PI, res.N); err != nil {
		return fail("%v", err)
	}
	return 0
}
