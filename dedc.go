// Package dedc is a library for incremental diagnosis and correction of
// multiple faults and design errors in gate-level logic circuits,
// reproducing Veneris, Liu, Amiri and Abadir, "Incremental Diagnosis and
// Correction of Multiple Faults and Errors" (DATE 2002).
//
// The package bundles everything a user needs end to end:
//
//   - netlists (construction, .bench I/O, generators for ISCAS-like
//     benchmark circuits),
//   - 64-bit parallel-pattern simulation,
//   - test vector generation (random + PODEM with fault dropping),
//   - stuck-at fault and Abadir design-error models with injection,
//   - the paper's incremental diagnosis/correction engine in two modes:
//     exact multiple stuck-at fault diagnosis (all minimal equivalent fault
//     tuples) and first-solution design error correction (DEDC).
//
// # Quick start
//
//	spec := dedc.Suite()[2].Build()                  // an ISCAS-like circuit
//	bad, _, _ := dedc.InjectErrors(spec, 2, 1)       // corrupt it
//	vecs := dedc.BuildVectors(spec, dedc.VectorOptions{Random: 4096})
//	specOut := dedc.Responses(spec, vecs)
//	rep, err := dedc.Repair(bad, specOut, vecs, dedc.Options{})
//
// See the examples directory for complete programs and DESIGN.md for the
// paper-to-code map.
package dedc

import (
	"context"
	"io"

	"dedc/internal/bench"
	"dedc/internal/circuit"
	"dedc/internal/diagnose"
	"dedc/internal/equiv"
	"dedc/internal/errmodel"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/opt"
	"dedc/internal/scan"
	"dedc/internal/sim"
	"dedc/internal/telemetry"
	"dedc/internal/tpg"
)

// Core netlist types.
type (
	// Circuit is a gate-level netlist.
	Circuit = circuit.Circuit
	// Line identifies a net (the output of the gate with the same index).
	Line = circuit.Line
	// GateType enumerates the gate library.
	GateType = circuit.GateType
	// Gate is a single netlist node.
	Gate = circuit.Gate
	// Builder offers fluent circuit construction (adders, XOR trees, ...).
	Builder = gen.B
	// Benchmark names a generated ISCAS-like circuit.
	Benchmark = gen.Benchmark
)

// Gate types re-exported from the circuit package.
const (
	Input  = circuit.Input
	Const0 = circuit.Const0
	Const1 = circuit.Const1
	Buf    = circuit.Buf
	Not    = circuit.Not
	And    = circuit.And
	Nand   = circuit.Nand
	Or     = circuit.Or
	Nor    = circuit.Nor
	Xor    = circuit.Xor
	Xnor   = circuit.Xnor
	DFF    = circuit.DFF
)

// NoLine is the invalid line sentinel.
const NoLine = circuit.NoLine

// Fault model types.
type (
	// Fault is a stuck-at fault at a stem or fanout-branch site.
	Fault = fault.Fault
	// Site is a stuck-at fault location.
	Site = fault.Site
	// Tuple is a set of faults jointly explaining a behaviour.
	Tuple = fault.Tuple
	// Mod is one design-error-model modification (error or correction).
	Mod = errmodel.Mod
)

// Diagnosis engine types.
type (
	// Options tunes the incremental search. Options.Workers shards the
	// verification gate's re-simulation (0 = GOMAXPROCS, 1 = sequential);
	// results are bit-identical for every value — see DefaultWorkers.
	Options = diagnose.Options
	// Params is one threshold step (h1/h2/h3) of the relaxation schedule.
	Params = diagnose.Params
	// Correction is one candidate netlist modification.
	Correction = diagnose.Correction
	// StuckAtResult carries all minimal fault tuples plus statistics.
	StuckAtResult = diagnose.StuckAtResult
	// RepairResult carries the first valid correction set and the repaired
	// circuit.
	RepairResult = diagnose.RepairResult
	// SearchStats reports nodes, rounds, trials and phase timings.
	SearchStats = diagnose.Stats
	// Budget bounds a search's countable resources (wall-clock time,
	// simulations, tree nodes, candidates). The zero value is unlimited.
	Budget = diagnose.Budget
	// Status classifies how a search ended: complete, first solution, or one
	// of the truncation statuses (timed out, cancelled, budget exhausted).
	Status = diagnose.Status
)

// Search outcome statuses.
const (
	StatusComplete        = diagnose.StatusComplete
	StatusFirstSolution   = diagnose.StatusFirstSolution
	StatusTimedOut        = diagnose.StatusTimedOut
	StatusCancelled       = diagnose.StatusCancelled
	StatusBudgetExhausted = diagnose.StatusBudgetExhausted
)

// Sentinel errors for malformed inputs, classifiable with errors.Is. The
// context-aware entry points return these instead of panicking.
var (
	// ErrInvalidNetlist reports a structurally broken netlist (bad fanin
	// references, wrong arities, missing interface lines).
	ErrInvalidNetlist = circuit.ErrInvalidNetlist
	// ErrCombinationalCycle reports a dependency cycle not broken by a DFF.
	ErrCombinationalCycle = circuit.ErrCombinationalCycle
	// ErrInvalidVectors reports a vector set or response matrix whose shape
	// does not match the netlist interface.
	ErrInvalidVectors = diagnose.ErrInvalidVectors
	// ErrTooManyInputs reports an exhaustive-pattern request beyond 20 PIs.
	ErrTooManyInputs = sim.ErrTooManyInputs
)

// NewCircuit returns an empty netlist with a capacity hint.
func NewCircuit(gateCap int) *Circuit { return circuit.New(gateCap) }

// NewBuilder returns a fluent circuit builder.
func NewBuilder() *Builder { return gen.NewB() }

// ReadBench parses an ISCAS .bench netlist.
func ReadBench(r io.Reader) (*Circuit, error) { return bench.Read(r) }

// ReadBenchString parses a .bench netlist from a string.
func ReadBenchString(s string) (*Circuit, error) { return bench.ReadString(s) }

// WriteBench serializes a netlist in .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return bench.Write(w, c) }

// Suite returns the ISCAS-like benchmark circuits used by the experiment
// harness (c432*…c7552*, s1196*…s9234*).
func Suite() []Benchmark { return gen.Suite() }

// BenchmarkByName looks up a benchmark from Suite or the small test suite.
func BenchmarkByName(name string) (Benchmark, bool) { return gen.ByName(name) }

// Parametric circuit generators re-exported from the benchmark suite.
var (
	// RippleAdder builds an n-bit ripple-carry adder.
	RippleAdder = gen.RippleAdder
	// CarrySelectAdder builds an n-bit carry-select adder.
	CarrySelectAdder = gen.CarrySelectAdder
	// ArrayMultiplier builds an n×n array multiplier (c6288-like at n=16).
	ArrayMultiplier = gen.ArrayMultiplier
	// WallaceMultiplier builds an n×n Wallace-tree multiplier.
	WallaceMultiplier = gen.WallaceMultiplier
	// Alu builds an n-bit four-function ALU.
	Alu = gen.Alu
	// Comparator builds an n-bit magnitude comparator.
	Comparator = gen.Comparator
	// ECC builds a single-error-correcting network over n data bits.
	ECC = gen.ECC
	// Decoder builds an n-to-2^n decoder with enable.
	Decoder = gen.Decoder
	// ParityTree builds an n-input parity checker.
	ParityTree = gen.ParityTree
	// PriorityInterrupt builds a c432-like interrupt controller.
	PriorityInterrupt = gen.PriorityInterrupt
	// LFSR builds an n-bit linear feedback shift register (sequential).
	LFSR = gen.LFSR
	// Counter builds an n-bit synchronous up-counter (sequential).
	Counter = gen.Counter
)

// Vectors is a test vector set: one packed row per primary input.
type Vectors struct {
	PI [][]uint64
	N  int
}

// VectorOptions configures BuildVectors.
type VectorOptions struct {
	// Random is the number of random patterns (default 1024; the paper uses
	// 6,000–10,000).
	Random int
	// Seed makes the set reproducible.
	Seed int64
	// Deterministic adds a PODEM test for every collapsed stuck-at fault the
	// random patterns miss.
	Deterministic bool
}

// BuildVectors produces the vector set V the diagnosis consumes.
func BuildVectors(c *Circuit, o VectorOptions) Vectors {
	res := tpg.BuildVectors(c, tpg.Options{Random: o.Random, Seed: o.Seed, Deterministic: o.Deterministic})
	return Vectors{PI: res.PI, N: res.N}
}

// RandomVectors returns n purely random patterns.
func RandomVectors(c *Circuit, n int, seed int64) Vectors {
	return Vectors{PI: sim.RandomPatterns(len(c.PIs), n, seed), N: n}
}

// Responses simulates a circuit over the vectors and returns its primary
// output rows — the observable behaviour of a device or specification.
func Responses(c *Circuit, v Vectors) [][]uint64 {
	return diagnose.DeviceOutputs(c, v.PI, v.N)
}

// Equivalent reports whether two circuits agree on the vector set.
func Equivalent(a, b *Circuit, v Vectors) bool {
	return sim.Equivalent(a, b, v.PI, v.N)
}

// FaultSites enumerates every stuck-at fault site (stems and branches).
func FaultSites(c *Circuit) []Site { return fault.Sites(c) }

// InjectFaults returns a copy of c with the stuck-at faults inserted.
func InjectFaults(c *Circuit, fs ...Fault) *Circuit { return fault.Inject(c, fs...) }

// InjectErrors returns a copy of c corrupted with k observable design
// errors drawn from the Campenhout-style distribution, plus the injected
// modifications.
func InjectErrors(c *Circuit, k int, seed int64) (*Circuit, []Mod, error) {
	return errmodel.Inject(c, k, errmodel.InjectOptions{Seed: seed})
}

// DiagnoseStuckAt runs exact multiple stuck-at diagnosis: every
// minimal-size fault tuple whose injection reproduces deviceOut.
func DiagnoseStuckAt(netlist *Circuit, deviceOut [][]uint64, v Vectors, o Options) *StuckAtResult {
	return diagnose.DiagnoseStuckAt(netlist, deviceOut, v.PI, v.N, o)
}

// DiagnoseStuckAtContext is DiagnoseStuckAt under a context and the resource
// budgets in o.Budget: malformed inputs return a sentinel error instead of
// panicking, and a cancelled or budget-capped search returns the tuples
// found so far with Status explaining the stop.
func DiagnoseStuckAtContext(ctx context.Context, netlist *Circuit, deviceOut [][]uint64, v Vectors, o Options) (*StuckAtResult, error) {
	return diagnose.DiagnoseStuckAtContext(ctx, netlist, deviceOut, v.PI, v.N, o)
}

// Repair runs design error diagnosis and correction: the first correction
// set making impl match specOut, plus the rectified netlist.
func Repair(impl *Circuit, specOut [][]uint64, v Vectors, o Options) (*RepairResult, error) {
	return diagnose.Repair(impl, specOut, v.PI, v.N, o)
}

// RepairContext is Repair under a context and the resource budgets in
// o.Budget. A search truncated by the deadline, a cancellation or an
// exhausted budget returns a non-nil result with Status set and no
// corrections (check RepairResult.Solved) rather than an error.
func RepairContext(ctx context.Context, impl *Circuit, specOut [][]uint64, v Vectors, o Options) (*RepairResult, error) {
	return diagnose.RepairContext(ctx, impl, specOut, v.PI, v.N, o)
}

// Optimize returns an area-optimized, functionally equivalent copy
// (constant folding, sweeping, structural hashing, dead gate removal).
func Optimize(c *Circuit) (*Circuit, error) { return opt.Optimize(c) }

// Bridge is a non-feedback wired-AND/OR bridging fault between two nets —
// the "other physical fault" extension the paper names as future work.
type Bridge = fault.Bridge

// Bridge kinds.
const (
	WiredAnd = fault.WiredAnd
	WiredOr  = fault.WiredOr
)

// InjectBridge returns a copy of c with the bridging fault inserted.
func InjectBridge(c *Circuit, b Bridge) (*Circuit, error) { return fault.InjectBridge(c, b) }

// DiagnosePhysical runs exact diagnosis over the composite physical fault
// model (stuck-at + bridging shorts against maxPartners sampled partner
// nets) and returns raw correction-set solutions.
func DiagnosePhysical(netlist *Circuit, deviceOut [][]uint64, v Vectors, maxPartners int, o Options) *diagnose.Result {
	return diagnose.DiagnosePhysical(netlist, deviceOut, v.PI, v.N, maxPartners, o)
}

// Unroll time-frame-expands a (non-scan) sequential circuit over the given
// number of frames, giving it combinational meaning over input sequences.
func Unroll(c *Circuit, frames int) (*Circuit, error) {
	u, err := scan.Unroll(c, frames)
	if err != nil {
		return nil, err
	}
	return u.Comb, nil
}

// Distinguish checks two fault tuples: a distinguishing input vector found
// by SAT, or a proof, by exhaustive simulation or SAT, that the two faulty
// machines are functionally identical.
func Distinguish(c *Circuit, a, b Tuple, maxConflicts int64) (vector []bool, equivalent bool, err error) {
	return diagnose.Distinguish(c, a, b, maxConflicts)
}

// PartitionTuples groups fault tuples into proven-equivalent classes —
// the certified form of the paper's "equivalent fault classes".
func PartitionTuples(c *Circuit, tuples []Tuple, maxConflicts int64) ([][]Tuple, error) {
	return diagnose.PartitionTuples(c, tuples, maxConflicts)
}

// AdaptiveResult extends a stuck-at diagnosis with certified equivalence
// classes and adaptive-pattern bookkeeping.
type AdaptiveResult = diagnose.AdaptiveResult

// DiagnoseAdaptive runs exact stuck-at diagnosis with adaptive diagnostic
// pattern generation: SAT-generated distinguishing vectors are applied to
// the (simulable) device and folded into V until every surviving tuple is
// provably equivalent — perfect diagnostic resolution.
func DiagnoseAdaptive(netlist, device *Circuit, v Vectors, o Options) (*AdaptiveResult, error) {
	return diagnose.DiagnoseAdaptive(netlist, device, v.PI, v.N, o, 0, 0)
}

// EquivResult is an equivalence verdict, the method that decided it, and a
// counterexample when the circuits differ.
type EquivResult = equiv.Result

// ProveEquivalent checks two combinational circuits: a proof of equivalence
// (by exhaustive simulation when the circuits have few inputs, else by
// SAT), or a counterexample input found by SAT. maxConflicts bounds the SAT
// search (0 = unlimited).
func ProveEquivalent(a, b *Circuit, maxConflicts int64) (*EquivResult, error) {
	return equiv.Check(a, b, equiv.Options{MaxConflicts: maxConflicts})
}

// ProvenResult is the outcome of the counterexample-guided repair loop.
type ProvenResult = diagnose.ProvenResult

// RepairProven runs DEDC in a counterexample-guided loop: repair on V,
// check against the specification circuit (proved by exhaustive simulation
// or SAT), fold any counterexample back into V and retry — returning a
// formally certified repair.
func RepairProven(impl, spec *Circuit, v Vectors, o Options) (*ProvenResult, error) {
	return diagnose.RepairProven(impl, spec, v.PI, v.N, o, 0, 0)
}

// ScanConvert returns the full-scan combinational view of a sequential
// circuit: DFF outputs become pseudo primary inputs, DFF data inputs pseudo
// primary outputs.
func ScanConvert(c *Circuit) (*Circuit, error) {
	cv, err := scan.Convert(c)
	if err != nil {
		return nil, err
	}
	return cv.Comb, nil
}

// Observability. The telemetry layer is disabled by default and costs one
// predictable branch on the hot path; enable it by attaching a Tracer to the
// context passed to the *Context entry points. See the "Observability"
// section in README.md for the span taxonomy and journal schema.
type (
	// Tracer emits hierarchical spans and journal events. A nil *Tracer is
	// the disabled default; every method no-ops.
	Tracer = telemetry.Tracer
	// Span is one node of the run → step → node trace hierarchy.
	Span = telemetry.Span
	// TracerOptions configures NewTracer (journal, logger, registry, pprof
	// labels, clock).
	TracerOptions = telemetry.Options
	// Journal is a line-buffered JSONL event sink (schema v2).
	Journal = telemetry.Journal
	// MetricsRegistry is a process- or run-scoped set of named counters,
	// gauges and histograms.
	MetricsRegistry = telemetry.Registry
)

// DefaultWorkers is the evaluation-worker count an Options.Workers of zero
// resolves to: one worker per available CPU.
func DefaultWorkers() int { return telemetry.DefaultWorkers() }

// NewTracer returns a tracer with the given options.
func NewTracer(o TracerOptions) *Tracer { return telemetry.NewTracer(o) }

// NewJournal returns a journal writing JSONL events to w. Close it to flush.
func NewJournal(w io.Writer) *Journal { return telemetry.NewJournal(w) }

// JournalEvent is one decoded, schema-validated journal line.
type JournalEvent = telemetry.ParsedEvent

// ParseJournalEvent decodes and validates one journal line against the
// schema (version, required v/ts/seq/span/event fields).
func ParseJournalEvent(line []byte) (JournalEvent, error) {
	return telemetry.ParseEvent(line)
}

// JournalReplayOptions configures ReplayJournal.
type JournalReplayOptions = telemetry.ReplayOptions

// ReplayJournal streams a run journal through fn, validating each line
// against the schema and the whole stream for monotone sequence numbers and
// a consistent schema version. It returns the number of events replayed.
// Set TolerateTruncatedTail to accept the partial final line a crash leaves.
func ReplayJournal(r io.Reader, o JournalReplayOptions, fn func(JournalEvent) error) (int, error) {
	return telemetry.ReplayJournal(r, o, fn)
}

// Checkpoint is one resumable snapshot of an in-flight diagnosis: the
// schedule step, round, search frontier, solutions so far and counters.
// Journals at schema v2 embed one per search round.
type Checkpoint = diagnose.Checkpoint

// LatestCheckpoint scans a run journal — tolerating a crash-truncated final
// line — and returns its last good checkpoint, or nil when the run never
// reached one (a resume then starts fresh).
func LatestCheckpoint(r io.Reader) (*Checkpoint, error) {
	return diagnose.LatestCheckpoint(r)
}

// ResumeStuckAt continues a crashed stuck-at diagnosis from its journal.
// The netlist, device responses and vectors must be identical to the
// crashed run's; mismatched inputs are rejected with an error.
func ResumeStuckAt(ctx context.Context, journal io.Reader, netlist *Circuit, deviceOut [][]uint64, v Vectors, o Options) (*StuckAtResult, error) {
	return diagnose.ResumeStuckAtFromJournal(ctx, journal, netlist, deviceOut, v.PI, v.N, o)
}

// ResumeRepair continues a crashed DEDC repair from its journal, under the
// same identical-inputs requirement as ResumeStuckAt.
func ResumeRepair(ctx context.Context, journal io.Reader, impl *Circuit, specOut [][]uint64, v Vectors, o Options) (*RepairResult, error) {
	return diagnose.ResumeRepairFromJournal(ctx, journal, impl, specOut, v.PI, v.N, o)
}

// NewMetricsRegistry returns an empty metrics registry. The process-wide
// default registry is dedc.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// Metrics is the process-wide default registry: engine counters land here
// unless a run is instrumented with its own registry.
var Metrics = telemetry.Default

// WithTracer returns a context carrying the tracer; pass it to the *Context
// entry points to trace and journal a run.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return telemetry.WithTracer(ctx, t)
}

// TracerFromContext returns the tracer carried by ctx, or nil (disabled).
func TracerFromContext(ctx context.Context) *Tracer { return telemetry.FromContext(ctx) }

// DebugServer is a live debugging HTTP server: /metrics (Prometheus text
// exposition of a registry) and /debug/pprof/.
type DebugServer = telemetry.DebugServer

// ServeDebug starts a DebugServer on addr (use ":0" for an ephemeral port,
// DebugServer.Addr for the bound address) exposing reg at /metrics. Shut it
// down with DebugServer.Shutdown. The CLI flag -debug-addr on cmd/dedc,
// cmd/atpg and cmd/tables is this server over the default registry.
func ServeDebug(addr string, reg *MetricsRegistry) (*DebugServer, error) {
	return telemetry.Serve(addr, reg)
}

// WriteMetricsProm writes a registry in Prometheus text exposition format —
// what a DebugServer serves at /metrics.
func WriteMetricsProm(w io.Writer, reg *MetricsRegistry) error { return reg.WriteProm(w) }
