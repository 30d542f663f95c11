// Command tables regenerates the paper's evaluation tables on the
// ISCAS-like benchmark suite.
//
// Usage:
//
//	tables -table 1                       # Table 1: stuck-at faults, 1-4 faults
//	tables -table 2                       # Table 2: design errors, 3-4 errors
//	tables -table masking                 # §4.1 fault-masking observation
//	tables -ckts 'c432*,c880*' -trials 10 -vectors 4096
//	tables ... -journal tables.jsonl -cpuprofile cpu.out
//	tables ... -debug-addr localhost:6060   # live /metrics, /debug/pprof/
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"

	"dedc/internal/experiment"
	"dedc/internal/gen"
	"dedc/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	table := fs.String("table", "1", "which table to regenerate: 1, 2 or masking")
	ckts := fs.String("ckts", "", "comma-separated circuit names (default: full suite)")
	trials := fs.Int("trials", 10, "experiments per cell (paper: 10)")
	vectors := fs.Int("vectors", 2048, "random vectors in V")
	seed := fs.Int64("seed", 1, "base seed")
	maxNodes := fs.Int("maxnodes", 0, "node cap per diagnosis run (0 = default)")
	workers := telemetry.WorkersFlag(fs)
	var obs telemetry.CLI
	obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	rt, err := obs.Build(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		return 1
	}
	defer func() {
		if cerr := rt.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "tables: %v\n", cerr)
		}
	}()
	log := rt.Logger

	ctx, stop := signal.NotifyContext(rt.Context(context.Background()), os.Interrupt)
	defer stop()
	// First ctrl-C cancels gracefully; restoring the default disposition
	// right after lets a second ctrl-C force-exit a wedged run.
	go func() {
		<-ctx.Done()
		stop()
	}()

	cfg := experiment.Config{
		Trials: *trials, Vectors: *vectors, Seed: *seed,
		MaxNodes: *maxNodes, Workers: *workers, Ctx: ctx,
	}
	bms, ok := selectCircuits(*ckts, log)
	if !ok {
		return 1
	}

	switch *table {
	case "1":
		var rows []experiment.Table1Row
		for _, bm := range bms {
			log.Info("running benchmark", "table", 1, "ckt", bm.Name)
			row, err := experiment.RunTable1Row(bm, []int{1, 2, 3, 4}, cfg)
			if err != nil {
				log.Error("benchmark failed", "ckt", bm.Name, "err", err)
				continue
			}
			rows = append(rows, row)
		}
		experiment.WriteTable1(os.Stdout, rows)
	case "2":
		var rows []experiment.Table2Row
		for _, bm := range bms {
			log.Info("running benchmark", "table", 2, "ckt", bm.Name)
			row, err := experiment.RunTable2Row(bm, []int{3, 4}, cfg)
			if err != nil {
				log.Error("benchmark failed", "ckt", bm.Name, "err", err)
				continue
			}
			rows = append(rows, row)
		}
		experiment.WriteTable2(os.Stdout, rows)
	case "masking":
		fmt.Printf("%-10s %8s %8s\n", "ckt", "runs", "masked")
		for _, bm := range bms {
			rate, runs, err := experiment.FaultMaskingRate(bm, 4, cfg)
			if err != nil {
				log.Error("benchmark failed", "ckt", bm.Name, "err", err)
				continue
			}
			fmt.Printf("%-10s %8d %7.0f%%\n", bm.Name, runs, 100*rate)
		}
	default:
		log.Error("unknown -table value", "table", *table)
		return 1
	}
	return 0
}

func selectCircuits(csv string, log *slog.Logger) ([]gen.Benchmark, bool) {
	if csv == "" {
		return gen.Suite(), true
	}
	var out []gen.Benchmark
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		bm, ok := gen.ByName(name)
		if !ok {
			log.Error("unknown circuit", "name", name)
			return nil, false
		}
		out = append(out, bm)
	}
	return out, true
}
