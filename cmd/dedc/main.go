// Command dedc diagnoses and corrects a .bench netlist against a golden
// specification (DEDC mode) or diagnoses stuck-at faults from a device's
// responses (fault-diagnosis mode).
//
// Usage:
//
//	dedc -impl bad.bench -spec good.bench                 # DEDC, write repair to stdout
//	dedc -impl good.bench -device faulty.bench -stuckat   # all minimal fault tuples
//	dedc ... -vec ckt.vec                                 # reuse an atpg vector file
//	dedc ... -timeout 30s                                 # bound the whole run
//	dedc ... -journal run.jsonl -cpuprofile cpu.out       # observability outputs
//	dedc ... -journal run.jsonl; dedc ... -resume run.jsonl  # crash, then resume
//
// Observability: -journal streams one JSONL event per span/iteration of the
// run (schema v2, see DESIGN.md), including periodic checkpoint events that
// -resume replays to continue a killed run; -cpuprofile/-memprofile/-trace write
// runtime profiles; -v enables debug logging and -log-format selects
// text or json log lines on stderr. -debug-addr serves live debugging
// endpoints for the duration of the run: /metrics (Prometheus text
// exposition of the engine counters and span-duration histograms) and
// /debug/pprof/ — e.g.
//
//	dedc ... -debug-addr localhost:6060 &
//	curl localhost:6060/metrics
//
// A -timeout or a SIGINT (ctrl-C) stops the search gracefully: partial
// results found so far are still reported. Exit status: 0 when a full
// answer was produced, 2 when the search ended without one (truncated or
// exhausted), 1 on usage or input errors.
//
// Sequential netlists are scan-converted automatically (full-scan
// assumption); both netlists must then agree on flip-flop count.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"time"

	"dedc/internal/bench"
	"dedc/internal/circuit"
	"dedc/internal/diagnose"
	"dedc/internal/fault"
	"dedc/internal/report"
	"dedc/internal/scan"
	"dedc/internal/telemetry"
	"dedc/internal/tpg"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole program behind an exit code, so deferred cleanup (journal
// flush, heap profile) always executes — os.Exit in main would skip it.
func run(args []string) int {
	fs := flag.NewFlagSet("dedc", flag.ContinueOnError)
	implPath := fs.String("impl", "", "netlist to diagnose/repair (required)")
	specPath := fs.String("spec", "", "golden specification netlist (DEDC mode)")
	devPath := fs.String("device", "", "faulty device netlist (stuck-at mode)")
	stuckat := fs.Bool("stuckat", false, "run exact stuck-at diagnosis instead of DEDC")
	vecPath := fs.String("vec", "", "vector file from cmd/atpg (default: generate)")
	random := fs.Int("random", 2048, "random vectors when generating")
	det := fs.Bool("det", true, "add deterministic vectors when generating")
	seed := fs.Int64("seed", 1, "seed for generated vectors")
	maxErrors := fs.Int("maxerrors", 4, "bound on the correction-set size")
	timeout := fs.Duration("timeout", 0, "wall-clock bound on the whole run (0 = none)")
	resume := fs.String("resume", "", "resume a crashed run from its journal (requires identical inputs: same netlists and the same -vec or -random/-seed/-det)")
	noVerify := fs.Bool("no-verify", false, "disable the verified-results gate (skip independent re-simulation of solutions)")
	certify := fs.Bool("certify", false, "SAT-partition stuck-at tuples into proven equivalence classes")
	out := fs.String("o", "", "repaired netlist output (DEDC mode; default stdout)")
	workers := telemetry.WorkersFlag(fs)
	var obs telemetry.CLI
	obs.Register(fs)
	// Flag parse errors are usage errors (exit 1); the flag package's
	// ExitOnError default of os.Exit(2) would collide with the
	// partial-result exit code.
	if err := fs.Parse(args); err != nil {
		return 1
	}

	// Read the crashed run's journal before the observability runtime opens
	// its outputs: -journal may name the same file, and os.Create would
	// truncate it out from under the resume.
	var resumeJournal []byte
	if *resume != "" {
		var err error
		if resumeJournal, err = os.ReadFile(*resume); err != nil {
			fmt.Fprintf(os.Stderr, "dedc: -resume: %v\n", err)
			return 1
		}
	}

	rt, err := obs.Build(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dedc: %v\n", err)
		return 1
	}
	defer func() {
		if cerr := rt.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "dedc: %v\n", cerr)
		}
	}()
	log := rt.Logger

	fail := func(format string, args ...any) int {
		log.Error(fmt.Sprintf(format, args...))
		return 1
	}

	if *implPath == "" {
		return fail("-impl is required")
	}
	refPath := *specPath
	if *stuckat {
		refPath = *devPath
	}
	if refPath == "" {
		return fail("need -spec (DEDC) or -device with -stuckat")
	}

	ctx := rt.Context(context.Background())
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()
	// First ctrl-C cancels the search gracefully; restoring the default
	// disposition right after lets a second ctrl-C force-exit a run that is
	// too wedged to unwind.
	go func() {
		<-ctx.Done()
		stop()
	}()

	impl, err := readCircuit(*implPath)
	if err != nil {
		return fail("%v", err)
	}
	ref, err := readCircuit(refPath)
	if err != nil {
		return fail("%v", err)
	}
	if impl.IsSequential() != ref.IsSequential() {
		return fail("one netlist is sequential and the other is not")
	}
	if impl.IsSequential() {
		if impl, err = convert(impl, log); err != nil {
			return fail("%v", err)
		}
		if ref, err = convert(ref, log); err != nil {
			return fail("%v", err)
		}
	}
	if len(impl.PIs) != len(ref.PIs) || len(impl.POs) != len(ref.POs) {
		return fail("interface mismatch: %d/%d PIs, %d/%d POs",
			len(impl.PIs), len(ref.PIs), len(impl.POs), len(ref.POs))
	}

	var pi [][]uint64
	var n int
	if *vecPath == "" {
		res := tpg.BuildVectorsContext(ctx, impl, tpg.Options{Random: *random, Seed: *seed, Deterministic: *det})
		pi, n = res.PI, res.N
		log.Info("generated vectors", "n", n, "coverage", res.Coverage,
			"deterministic", res.Generated, "backtracks", res.Backtracks)
		if res.Cancelled {
			log.Warn("vector generation interrupted; continuing with the partial set")
		}
	} else {
		f, err := os.Open(*vecPath)
		if err != nil {
			return fail("%v", err)
		}
		pi, n, err = tpg.ReadVectors(f, len(impl.PIs))
		f.Close()
		if err != nil {
			return fail("%v", err)
		}
	}
	refOut := diagnose.DeviceOutputs(ref, pi, n)

	opt := diagnose.Options{MaxErrors: *maxErrors, NoVerify: *noVerify, Seed: *seed, Workers: *workers}

	start := time.Now()
	if *stuckat {
		var res *diagnose.StuckAtResult
		if *resume != "" {
			res, err = diagnose.ResumeStuckAtFromJournal(ctx, bytes.NewReader(resumeJournal), impl, refOut, pi, n, opt)
		} else {
			res, err = diagnose.DiagnoseStuckAtContext(ctx, impl, refOut, pi, n, opt)
		}
		if err != nil {
			return fail("%v", err)
		}
		var classes [][]fault.Tuple
		if *certify && len(res.Tuples) > 1 {
			classes, err = diagnose.PartitionTuples(impl, res.Tuples, 0)
			if err != nil {
				return fail("%v", err)
			}
		}
		report.StuckAt(os.Stderr, impl, res, classes, time.Since(start))
		for _, tu := range res.Tuples {
			for i, ft := range tu {
				if i > 0 {
					fmt.Print("  ")
				}
				fmt.Printf("%s/%d", ft.Site.Name(impl), b2i(ft.Value))
			}
			fmt.Println()
		}
		if !res.Status.Solved() || len(res.Tuples) == 0 {
			return 2
		}
		return 0
	}

	var rep *diagnose.RepairResult
	if *resume != "" {
		rep, err = diagnose.ResumeRepairFromJournal(ctx, bytes.NewReader(resumeJournal), impl, refOut, pi, n, opt)
	} else {
		rep, err = diagnose.RepairContext(ctx, impl, refOut, pi, n, opt)
	}
	if err != nil {
		return fail("%v", err)
	}
	report.Repair(os.Stderr, impl, rep, time.Since(start))
	if !rep.Solved() {
		return 2
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := bench.Write(w, rep.Repaired); err != nil {
		return fail("%v", err)
	}
	return 0
}

func readCircuit(path string) (*circuit.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := bench.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

func convert(c *circuit.Circuit, log *slog.Logger) (*circuit.Circuit, error) {
	cv, err := scan.Convert(c)
	if err != nil {
		return nil, err
	}
	log.Info("scan-converted flip-flops", "dffs", len(cv.DFFs))
	return cv.Comb, nil
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
