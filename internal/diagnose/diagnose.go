// Package diagnose implements the paper's contribution: an incremental,
// simulation-based algorithm for multiple stuck-at fault diagnosis and
// design error diagnosis and correction (DEDC).
//
// Given a netlist, a set of input vectors V and the primary-output responses
// of a reference that can only be simulated (the faulty device in fault
// diagnosis, the specification in DEDC), the algorithm repeatedly picks one
// suspicious line and one correction for it, bringing the netlist's
// behaviour closer to the reference:
//
//  1. Diagnosis: path-trace marks suspects from failing outputs; the top
//     5–20% most-marked lines qualify; heuristic 1 ranks them by how many
//     erroneous output bits flipping the line's entire Verr bit-list would
//     rectify.
//  2. Correction: candidates from the fault/error model are screened by the
//     Theorem-1 test (complement at least h2·|Verr| bits at the target — a
//     single local gate evaluation, or one word op for the design-error
//     model's wire candidates) and the Vcorr test (create at most
//     (1−h3) newly failing vectors — one fanout-cone propagation), then
//     ranked by (1−Vratio)·h3score + Vratio·h1score.
//  3. Search: a decision tree traversed in rounds (the BFS/DFS trade-off of
//     Fig. 2) — every open node expands its single best unexpanded
//     correction per round. Thresholds h1/h2/h3 start at 1/1/1 and relax on
//     failure down to a 0.1/0.3/0.5 floor.
//
// Exact mode keeps traversing after the first solution and returns every
// minimal-size correction tuple — the form Table 1 reports for stuck-at
// faults.
package diagnose

import (
	"runtime"
	"time"

	"dedc/internal/circuit"
	"dedc/internal/sim"
)

// Correction is one candidate modification of the netlist under repair. The
// two concrete families are stuck-at fault injections (fault diagnosis
// direction) and design-error-model modifications (DEDC direction).
type Correction interface {
	// Target is the line whose function the correction changes.
	Target() circuit.Line
	// NewValues writes the target line's value row under the correction —
	// one local evaluation over engine base values, no propagation.
	NewValues(e *sim.Engine, dst []uint64)
	// Apply mutates the circuit structurally.
	Apply(c *circuit.Circuit) error
	String() string
}

// Model enumerates correction candidates at a suspect line.
type Model interface {
	Enumerate(c *circuit.Circuit, l circuit.Line) []Correction
}

// Params holds one step of the threshold relaxation schedule: H1 is the
// minimum fraction of erroneous output bits a candidate line must be able to
// rectify (heuristic 1), H2 the minimum fraction of Verr bits a correction
// must complement (Theorem 1), and H3 the minimum fraction of passing
// vectors that must remain passing.
type Params struct {
	H1, H2, H3 float64
}

// DefaultSchedule is the paper's relaxation schedule: 1/1/1 for the single
// error case, relaxed progressively (H1 first, since H2/H3 are error-count
// independent) down to the 0.1/0.3/0.5 floor.
func DefaultSchedule() []Params {
	return []Params{
		{1, 1, 1},
		{0.5, 0.9, 0.97},
		{0.3, 0.7, 0.95},
		{0.3, 0.5, 0.85},
		{0.2, 0.4, 0.7},
		{0.1, 0.3, 0.5},
	}
}

// Policy selects the decision-tree traversal order.
type Policy int

// Traversal policies. PolicyRounds is the paper's BFS/DFS trade-off
// (Fig. 2): each round, every open node expands its single best unexpanded
// correction. PolicyDFS greedily follows best-ranked corrections depth
// first; PolicyBFS expands every candidate of a node before moving on. The
// two pure policies exist for the ablation study the paper motivates in
// §3.3.
const (
	PolicyRounds Policy = iota
	PolicyDFS
	PolicyBFS
)

// Options tunes the search. The zero value is completed by Defaults.
type Options struct {
	// MaxErrors bounds the correction-tuple cardinality (tree depth).
	MaxErrors int
	// MaxRounds bounds tree growth (the tree at most doubles per round).
	MaxRounds int
	// MaxNodes caps the total number of expanded nodes per schedule step.
	MaxNodes int
	// Exact keeps searching after the first solution and returns all
	// minimal-size tuples (Table 1 mode). Otherwise the search stops at the
	// first valid correction set (Table 2 / DEDC mode).
	Exact bool
	// PathTraceKeep is the fraction of marked lines kept (paper: 5–20%).
	PathTraceKeep float64
	// MinKeep is the minimum number of candidate lines kept.
	MinKeep int
	// MaxSuspects caps the candidate lines examined per node after
	// heuristic-1 ranking (bounds per-node cost at relaxed schedule steps,
	// where the pigeonhole widening can otherwise qualify most of the
	// circuit).
	MaxSuspects int
	// MaxCorrectionsPerNode caps the ranked correction list stored per node.
	MaxCorrectionsPerNode int
	// Schedule is the threshold relaxation sequence; nil = DefaultSchedule.
	Schedule []Params
	// Budget bounds wall-clock and counted resources of the whole search.
	// The zero value is unlimited. See Budget.
	Budget Budget
	// Policy selects the tree traversal order (default PolicyRounds).
	Policy Policy
	// DisablePathTrace makes every line a suspect (ablation; quadratic).
	DisablePathTrace bool
	// Workers sets how many goroutines the verification gate's batch
	// re-simulation (sim.SimulateParallel) shards its pattern words across;
	// nothing else in the search reads it. 0 selects GOMAXPROCS; 1 simulates
	// sequentially. Solutions, journals and Stats.Deterministic are
	// bit-identical for every value, because the patterns of a word-parallel
	// simulation are independent.
	Workers int
	// NoVerify disables the verified-results gate. By default every solution
	// is independently re-proven before it is recorded: the corrections are
	// applied to a fresh clone of the netlist and re-simulated from scratch
	// over the vectors in reversed order; a solution that fails this check is
	// dropped (and counted in result.verify_failed) instead of reported.
	NoVerify bool
	// Seed is the vector-generation seed of the run, recorded in journal
	// checkpoints so a resume can reject a journal written under different
	// vectors. It does not influence the search itself.
	Seed int64
}

// Defaults fills unset options.
func (o Options) defaults() Options {
	if o.MaxErrors == 0 {
		o.MaxErrors = 4
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 12
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 4096
	}
	if o.PathTraceKeep == 0 {
		o.PathTraceKeep = 0.15
	}
	if o.MinKeep == 0 {
		o.MinKeep = 10
	}
	if o.MaxSuspects == 0 {
		o.MaxSuspects = 64
	}
	if o.MaxCorrectionsPerNode == 0 {
		o.MaxCorrectionsPerNode = 256
	}
	if o.Schedule == nil {
		o.Schedule = DefaultSchedule()
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// Solution is one correction set that makes the netlist match the reference
// on every vector in V.
type Solution struct {
	Corrections []Correction
}

// Stats reports the work the search performed, in the units of the paper's
// tables.
type Stats struct {
	Nodes    int           // decision-tree nodes expanded ("nodes" column)
	Rounds   int           // rounds used in the final schedule step
	Trials   int           // full-width screens run of a row that changes the target's values
	Screened int           // corrections rejected by the Theorem-1 screen alone
	DiagTime time.Duration // path trace + heuristic-1 ranking
	CorrTime time.Duration // enumeration + screening + ranking
	Schedule Params        // thresholds of the schedule step that succeeded
	// Simulations counts full-circuit parallel-pattern simulations plus one
	// trial per heuristic-1 suspect and per Theorem-1 survivor, whether the
	// trial is propagated or scored from observability rows — the unit
	// Budget.MaxSimulations caps.
	Simulations int64
	// Candidates counts corrections examined (enumerated and at least
	// Theorem-1 screened) — the unit Budget.MaxCandidates caps.
	Candidates int64
	// H3Rejected counts the full-width screens the Vcorr/h3 screen rejected
	// (too many newly failing vectors).
	H3Rejected int
	// Verified counts solutions that passed the verified-results gate (an
	// independent re-simulation in a different vector order). With the gate
	// disabled (Options.NoVerify) it stays zero.
	Verified int
	// VerifyTime is the wall time of the verified-results gate. It is
	// zeroed by Deterministic, so checkpoints omit it.
	VerifyTime time.Duration `json:",omitempty"`
}

// Result is the output of Run. Status explains how the search ended; when
// it is a truncation status (TimedOut, Cancelled, BudgetExhausted) the
// Solutions found before the cutoff are still present and Stats reports the
// work done, so a caller can inspect the partial answer and resume with a
// relaxed schedule or larger budget.
type Result struct {
	Solutions []Solution
	Stats     Stats
	Status    Status
}

// RankedCorrection pairs a correction with its ranking score, exposed for
// audits and ablation studies.
type RankedCorrection struct {
	C        Correction
	Rank     float64
	H1Score  float64 // fraction of erroneous output bits rectified
	H3Score  float64 // fraction of passing vectors kept passing
	NewFails int     // newly failing vectors it introduces
	Fixes    int     // failing vectors it fully rectifies
}
