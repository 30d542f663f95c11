package perf

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"dedc/internal/bench"
	"dedc/internal/cache"
	"dedc/internal/circuit"
	"dedc/internal/diagnose"
	"dedc/internal/equiv"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/pathtrace"
	"dedc/internal/scan"
	"dedc/internal/sim"
	"dedc/internal/telemetry"
	"dedc/internal/tpg"
)

// Phases in report order. Each is an independently repeatable op, not a
// partition of one run: h1rank and screen each expand a root decision-tree
// node (their ns/op is the engine's own DiagTime/CorrTime phase timer), and
// pathtrace is also exercised standalone for a clean allocation count.
const (
	PhaseParse     = "parse"     // .bench text -> circuit
	PhaseVectors   = "vectors"   // random + PODEM vector build (tpg.backtracks)
	PhaseSimulate  = "simulate"  // parallel-pattern base simulation
	PhasePathTrace = "pathtrace" // path-trace marking + Top cut
	PhaseH1Rank    = "h1rank"    // heuristic-1 suspect ranking (sim.trials)
	PhaseScreen    = "screen"    // correction enumeration + Theorem-1/Vcorr screens
	PhaseSATCheck  = "satcheck"  // SAT equivalence self-proof (sat.conflicts)

	// Reuse variants of the two hot phases above, measuring the repeated-
	// circuit workload a service actually sees: the same vector build served
	// from the content-addressed cache, and the same equivalence check
	// re-proved on a persistent incremental SAT session. Their cold
	// counterparts (vectors, satcheck) stay pinned to the fresh path, so a
	// report holding both is a cold-vs-warm pair per scenario —
	// Report.AtpgSpeedups divides them.
	PhaseVectorsCached = "vectors_cached" // warm cache.Pipeline hit (cache.hits)
	PhaseSATCheckInc   = "satcheck_inc"   // warm equiv.Session re-check (sat.propagations)
)

// ParallelPhase names the engine-pool variant of a phase at a worker count,
// e.g. "screen_w4": the same root expansion as the base phase on the same
// circuit × fault × vector cell, with the trial fan-outs sharded over the
// pool. The base h1rank/screen phases are always measured with Workers=1
// (the exact legacy path), so a report holding both is a w1-vs-wN comparison
// on identical work — Report.Speedups divides the pairs.
func ParallelPhase(base string, workers int) string {
	return fmt.Sprintf("%s_w%d", base, workers)
}

// Scenario is one suite cell: a generated circuit, a fault multiplicity and
// a random-vector budget.
type Scenario struct {
	Circuit string // gen.ByName benchmark
	Faults  int
	Vectors int
	Seed    int64
}

// Name is the scenario's stable report key, e.g. "alu4/f2/v256".
func (s Scenario) Name() string {
	return fmt.Sprintf("%s/f%d/v%d", s.Circuit, s.Faults, s.Vectors)
}

// QuickSuite is the short deterministic suite behind `make bench` and the
// make-check trajectory: small enough to run in seconds, varied enough to
// cover every pipeline phase on arithmetic, ECC and random control logic.
func QuickSuite() []Scenario {
	return []Scenario{
		{Circuit: "alu4", Faults: 1, Vectors: 256, Seed: 1},
		{Circuit: "ecc8", Faults: 1, Vectors: 256, Seed: 1},
		{Circuit: "addcmp8", Faults: 2, Vectors: 256, Seed: 1},
		{Circuit: "mult4", Faults: 2, Vectors: 256, Seed: 1},
		{Circuit: "rnd300", Faults: 1, Vectors: 512, Seed: 1},
	}
}

// FullSuite covers the paper-scale combinational benchmarks at realistic
// vector budgets; minutes, not seconds.
func FullSuite() []Scenario {
	return []Scenario{
		{Circuit: "c432*", Faults: 1, Vectors: 2048, Seed: 1},
		{Circuit: "c880*", Faults: 2, Vectors: 2048, Seed: 1},
		{Circuit: "c1355*", Faults: 1, Vectors: 2048, Seed: 1},
		{Circuit: "c2670*", Faults: 2, Vectors: 4096, Seed: 1},
		{Circuit: "c3540*", Faults: 3, Vectors: 4096, Seed: 1},
		{Circuit: "c6288*", Faults: 2, Vectors: 2048, Seed: 1},
		{Circuit: "c7552*", Faults: 2, Vectors: 4096, Seed: 1},
	}
}

// Suite resolves a suite name ("quick" or "full").
func Suite(name string) ([]Scenario, error) {
	switch name {
	case "quick":
		return QuickSuite(), nil
	case "full":
		return FullSuite(), nil
	}
	return nil, fmt.Errorf("perf: unknown suite %q (want quick or full)", name)
}

// Options tunes a suite run.
type Options struct {
	// BestOf is the repetition count per phase; the fastest rep is reported.
	// Zero means 3.
	BestOf int
	// MaxConflicts bounds the satcheck phase's SAT proof so array
	// multipliers can't stall the suite. Zero means 50000.
	MaxConflicts int64
	// Workers, when at least 2, adds engine-pool variants of the h1rank and
	// screen phases (named by ParallelPhase) measured at that worker count.
	// The base phases stay pinned to the exact sequential path either way,
	// so the report carries a w1-vs-wN pair per scenario. Zero or 1 measures
	// the sequential phases only.
	Workers int
	// Logf, when set, receives one progress line per scenario.
	Logf func(format string, args ...any)
}

func (o Options) defaults() Options {
	if o.BestOf == 0 {
		o.BestOf = 3
	}
	if o.MaxConflicts == 0 {
		o.MaxConflicts = 50000
	}
	return o
}

// Run measures every scenario and assembles the report.
func Run(suiteName string, scenarios []Scenario, opt Options) (*Report, error) {
	opt = opt.defaults()
	rep := &Report{
		Schema: SchemaVersion,
		Suite:  suiteName,
		BestOf: opt.BestOf,
		Go:     runtime.Version(),
	}
	for _, sc := range scenarios {
		sr, err := runScenario(sc, opt)
		if err != nil {
			return nil, fmt.Errorf("perf: scenario %s: %w", sc.Name(), err)
		}
		rep.Scenarios = append(rep.Scenarios, *sr)
		if opt.Logf != nil {
			opt.Logf("measured %s (%d lines, %d failing vectors)", sc.Name(), sr.Lines, sr.FailVectors)
		}
	}
	return rep, nil
}

// nullModel enumerates no corrections, so an ExpandRoot under it measures
// the diagnosis side (path trace + heuristic-1 ranking) alone.
type nullModel struct{}

func (nullModel) Enumerate(*circuit.Circuit, circuit.Line) []diagnose.Correction { return nil }

func runScenario(sc Scenario, opt Options) (*ScenarioResult, error) {
	bm, ok := gen.ByName(sc.Circuit)
	if !ok {
		return nil, fmt.Errorf("unknown circuit %q", sc.Circuit)
	}
	good := bm.Build()
	if bm.Sequential {
		cv, err := scan.Convert(good)
		if err != nil {
			return nil, err
		}
		good = cv.Comb
	}
	faults := fault.PickObservable(good, sc.Faults, sc.Seed)
	if faults == nil {
		return nil, fmt.Errorf("no observable %d-fault combination", sc.Faults)
	}
	bad := fault.Inject(good, faults...)

	var benchText bytes.Buffer
	if err := bench.Write(&benchText, bad); err != nil {
		return nil, err
	}

	// A dedicated registry + journal-less tracer: the pipeline's counter
	// wiring (engine trials, PODEM backtracks, SAT stats) and span-duration
	// histograms all resolve through the context exactly as in production.
	reg := telemetry.NewRegistry()
	ctx := telemetry.WithTracer(context.Background(), telemetry.NewTracer(telemetry.Options{Registry: reg}))

	topt := tpg.Options{Random: sc.Vectors, Seed: sc.Seed, Deterministic: true}
	vecs := tpg.BuildVectorsContext(ctx, good, topt)
	pi, n := vecs.PI, vecs.N
	specOut := diagnose.DeviceOutputs(good, pi, n)
	badOut := diagnose.DeviceOutputs(bad, pi, n)
	fails := 0
	for _, w := range sim.DiffMask(badOut, specOut, n) {
		for ; w != 0; w &= w - 1 {
			fails++
		}
	}
	if fails == 0 {
		return nil, fmt.Errorf("injected faults invisible on the %d-vector set", n)
	}
	e := sim.NewEngine(bad, pi, n)
	vals := e.Values()

	// Workers: 1 pins the base h1rank/screen phases to the exact sequential
	// path, so their timings gate the legacy loop and the _wN variants below
	// measure the pool against an honest w1 reference.
	dopt := diagnose.Options{MaxErrors: sc.Faults, Workers: 1}
	params := diagnose.DefaultSchedule()[0]
	if sc.Faults > 1 {
		// Multi-fault nodes only do real work below 1/1/1 (the relaxed
		// steps are where production runs spend their time).
		params = diagnose.DefaultSchedule()[2]
	}

	sr := &ScenarioResult{
		Scenario:    sc.Name(),
		Circuit:     sc.Circuit,
		Faults:      sc.Faults,
		Vectors:     sc.Vectors,
		Lines:       bad.NumLines(),
		FailVectors: fails,
	}
	var err error
	run := func(phase string, op func() (int64, error)) {
		if err != nil {
			return
		}
		var pr PhaseResult
		pr, err = measure(reg, phase, opt.BestOf, op)
		if err == nil {
			sr.Phases = append(sr.Phases, pr)
		}
	}

	run(PhaseParse, func() (int64, error) {
		_, perr := bench.Read(bytes.NewReader(benchText.Bytes()))
		return 0, perr
	})
	run(PhaseVectors, func() (int64, error) {
		tpg.BuildVectorsContext(ctx, good, topt)
		return 0, nil
	})
	if opt.Workers > 1 {
		wopt := topt
		wopt.Workers = opt.Workers
		run(ParallelPhase(PhaseVectors, opt.Workers), func() (int64, error) {
			tpg.BuildVectorsContext(ctx, good, wopt)
			return 0, nil
		})
	}
	// The warm-cache variant: measure's untimed warmup run pays the one miss
	// that populates the pipeline, so every measured rep is a pure hit — the
	// repeated-circuit service workload. The pipeline shares the scenario's
	// registry, so cache.hits lands in the phase's counter deltas.
	pipe := cache.NewPipeline(64 << 20)
	pipe.Instrument(reg)
	run(PhaseVectorsCached, func() (int64, error) {
		pipe.Vectors(ctx, good, topt)
		return 0, nil
	})
	run(PhaseSimulate, func() (int64, error) {
		sim.Simulate(bad, pi, n)
		return 0, nil
	})
	run(PhasePathTrace, func() (int64, error) {
		pt := pathtrace.Trace(bad, vals, specOut, n)
		pt.Top(dopt.PathTraceKeep, dopt.MinKeep)
		return 0, nil
	})
	run(PhaseH1Rank, func() (int64, error) {
		_, stats := diagnose.ExpandRoot(ctx, bad, specOut, pi, n, nullModel{}, dopt, params)
		return stats.DiagTime.Nanoseconds(), nil
	})
	run(PhaseScreen, func() (int64, error) {
		_, stats := diagnose.ExpandRoot(ctx, bad, specOut, pi, n, diagnose.StuckAtModel{}, dopt, params)
		return stats.CorrTime.Nanoseconds(), nil
	})
	if opt.Workers > 1 {
		popt := dopt
		popt.Workers = opt.Workers
		run(ParallelPhase(PhaseH1Rank, opt.Workers), func() (int64, error) {
			_, stats := diagnose.ExpandRoot(ctx, bad, specOut, pi, n, nullModel{}, popt, params)
			return stats.DiagTime.Nanoseconds(), nil
		})
		run(ParallelPhase(PhaseScreen, opt.Workers), func() (int64, error) {
			_, stats := diagnose.ExpandRoot(ctx, bad, specOut, pi, n, diagnose.StuckAtModel{}, popt, params)
			return stats.CorrTime.Nanoseconds(), nil
		})
	}
	run(PhaseSATCheck, func() (int64, error) {
		_, cerr := equiv.Check(good, good, equiv.Options{MaxConflicts: opt.MaxConflicts, Ctx: ctx})
		return 0, cerr
	})
	// The warm-session variant: the warmup run pays the one-time encode and
	// full proof; measured reps re-prove the same candidate on the persistent
	// solver, where the learnt clauses have already root-falsified the
	// activation literal and the re-check is pure propagation.
	session, serr := equiv.NewSession(good)
	if serr != nil {
		return nil, serr
	}
	run(PhaseSATCheckInc, func() (int64, error) {
		_, cerr := session.Check(good, equiv.Options{MaxConflicts: opt.MaxConflicts, Ctx: ctx})
		return 0, cerr
	})
	if err != nil {
		return nil, err
	}
	return sr, nil
}

// Adaptive sampling bounds: beyond the configured best-of floor, a phase
// keeps repeating until it has accumulated minSampleTime of wall clock (or
// hits maxReps), because the min of a handful of single-shot millisecond
// runs is at the mercy of scheduler noise — exactly what a regression gate
// cannot afford.
const (
	minSampleTime = 50 * time.Millisecond
	maxReps       = 25
)

// measure runs op best-of-N (N adaptive, at least bestOf) and keeps the
// fastest rep: its duration (the op's self-reported phase timer when it
// returns one, wall clock otherwise), its heap allocation count, and its
// telemetry counter deltas. One untimed warmup run precedes the loop.
func measure(reg *telemetry.Registry, phase string, bestOf int, op func() (int64, error)) (PhaseResult, error) {
	if _, err := op(); err != nil {
		return PhaseResult{}, fmt.Errorf("phase %s: %w", phase, err)
	}
	best := PhaseResult{Phase: phase, NsPerOp: math.MaxInt64}
	var m0, m1 runtime.MemStats
	var total time.Duration
	for rep := 0; rep < bestOf || total < minSampleTime && rep < maxReps; rep++ {
		before := counterValues(reg)
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		selfNs, err := op()
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return PhaseResult{}, fmt.Errorf("phase %s: %w", phase, err)
		}
		total += wall
		ns := wall.Nanoseconds()
		if selfNs > 0 {
			ns = selfNs
		}
		if ns < best.NsPerOp {
			best.NsPerOp = ns
			best.AllocsPerOp = int64(m1.Mallocs - m0.Mallocs)
			best.Counters = counterDelta(before, counterValues(reg))
		}
	}
	return best, nil
}

// counterValues snapshots every scalar (counter/gauge) metric.
func counterValues(reg *telemetry.Registry) map[string]int64 {
	out := map[string]int64{}
	for name, v := range reg.Snapshot() {
		if n, ok := v.(int64); ok {
			out[name] = n
		}
	}
	return out
}

// counterDelta keeps the scalars that moved during the op.
func counterDelta(before, after map[string]int64) map[string]int64 {
	var out map[string]int64
	for name, a := range after {
		if d := a - before[name]; d != 0 {
			if out == nil {
				out = map[string]int64{}
			}
			out[name] = d
		}
	}
	return out
}
