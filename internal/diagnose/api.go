package diagnose

import (
	"context"
	"errors"
	"fmt"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/sim"
)

// ErrInvalidVectors reports a vector set or response matrix whose shape
// does not match the netlist interface (row counts against PI/PO counts,
// row widths against the pattern count).
var ErrInvalidVectors = errors.New("invalid vector set")

// validateInputs is the recover-free validation layer shared by the
// context-aware entry points: everything that would otherwise surface as a
// panic deep inside sim or circuit is rejected here with a sentinel error.
func validateInputs(netlist *circuit.Circuit, refOut [][]uint64, pi [][]uint64, n int) error {
	if err := validateVectors(netlist, pi, n); err != nil {
		return err
	}
	w := sim.Words(n)
	if len(refOut) != len(netlist.POs) {
		return fmt.Errorf("diagnose: %d response rows for %d primary outputs: %w", len(refOut), len(netlist.POs), ErrInvalidVectors)
	}
	for i, row := range refOut {
		if len(row) < w {
			return fmt.Errorf("diagnose: response row %d has %d words, need %d for %d patterns: %w", i, len(row), w, n, ErrInvalidVectors)
		}
	}
	return nil
}

// validateReference is validateInputs for the entry points that simulate
// the reference circuit (a specification or a device) themselves: the
// netlist and vectors are checked, then the reference must be a netlist
// that simulates, with the netlist's primary inputs and outputs.
func validateReference(netlist, ref *circuit.Circuit, pi [][]uint64, n int) error {
	if err := validateVectors(netlist, pi, n); err != nil {
		return err
	}
	if err := validateNetlist(ref); err != nil {
		return err
	}
	if len(ref.PIs) != len(netlist.PIs) || len(ref.POs) != len(netlist.POs) {
		return fmt.Errorf("diagnose: reference has %d PIs and %d POs, netlist %d and %d: %w",
			len(ref.PIs), len(ref.POs), len(netlist.PIs), len(netlist.POs), circuit.ErrInvalidNetlist)
	}
	return nil
}

// validateVectors checks the netlist and that pi holds n patterns for it.
func validateVectors(netlist *circuit.Circuit, pi [][]uint64, n int) error {
	if err := validateNetlist(netlist); err != nil {
		return err
	}
	if n <= 0 {
		return fmt.Errorf("diagnose: pattern count %d: %w", n, ErrInvalidVectors)
	}
	w := sim.Words(n)
	if len(pi) != len(netlist.PIs) {
		return fmt.Errorf("diagnose: %d PI rows for %d primary inputs: %w", len(pi), len(netlist.PIs), ErrInvalidVectors)
	}
	for i, row := range pi {
		if len(row) < w {
			return fmt.Errorf("diagnose: PI row %d has %d words, need %d for %d patterns: %w", i, len(row), w, n, ErrInvalidVectors)
		}
	}
	return nil
}

// validateNetlist checks that c is a netlist simulation can run on.
func validateNetlist(c *circuit.Circuit) error {
	if c == nil {
		return fmt.Errorf("diagnose: nil netlist: %w", circuit.ErrInvalidNetlist)
	}
	if err := c.Validate(); err != nil {
		return err
	}
	// Validate tolerates DFF-broken feedback, but simulation needs a full
	// topological order: reject any cycle up front instead of panicking.
	if _, err := c.TopoChecked(); err != nil {
		return fmt.Errorf("diagnose: netlist has state feedback; scan-convert or unroll first: %w", err)
	}
	return nil
}

// DeviceOutputs simulates a reference circuit (the faulty device or the
// golden specification) over the vectors and returns deep copies of its PO
// rows — the only information the diagnosis algorithm consumes about it.
func DeviceOutputs(ref *circuit.Circuit, pi [][]uint64, n int) [][]uint64 {
	val := sim.Simulate(ref, pi, n)
	out := make([][]uint64, len(ref.POs))
	for i, po := range ref.POs {
		out[i] = append([]uint64(nil), val[po]...)
	}
	return out
}

// StuckAtResult is the Table-1 form of a diagnosis: all minimal-size fault
// tuples explaining the device behaviour, plus search statistics. Status
// distinguishes a complete enumeration from one truncated by a resource
// limit; truncated runs keep the tuples found before the cutoff.
type StuckAtResult struct {
	Tuples []fault.Tuple
	Stats  Stats
	Status Status
}

// DiagnoseStuckAt runs exact multiple stuck-at diagnosis: find every
// minimal-size set of stuck-at faults whose injection into the fault-free
// netlist reproduces deviceOut on all vectors. It is the legacy entry
// point; DiagnoseStuckAtContext adds input validation and cancellation.
func DiagnoseStuckAt(netlist *circuit.Circuit, deviceOut [][]uint64, pi [][]uint64, n int, opt Options) *StuckAtResult {
	return diagnoseStuckAt(context.Background(), netlist, deviceOut, pi, n, opt)
}

// DiagnoseStuckAtContext is DiagnoseStuckAt under a context and the
// resource budgets in opt.Budget. Malformed inputs return a sentinel error
// (circuit.ErrInvalidNetlist, circuit.ErrCombinationalCycle,
// ErrInvalidVectors) instead of panicking. On cancellation or budget
// exhaustion the result is non-nil with Status explaining the stop and any
// tuples found so far intact.
func DiagnoseStuckAtContext(ctx context.Context, netlist *circuit.Circuit, deviceOut [][]uint64, pi [][]uint64, n int, opt Options) (*StuckAtResult, error) {
	if err := validateInputs(netlist, deviceOut, pi, n); err != nil {
		return nil, err
	}
	return diagnoseStuckAt(ctx, netlist, deviceOut, pi, n, opt), nil
}

func diagnoseStuckAt(ctx context.Context, netlist *circuit.Circuit, deviceOut [][]uint64, pi [][]uint64, n int, opt Options) *StuckAtResult {
	opt.Exact = true
	res := RunContext(ctx, netlist, deviceOut, pi, n, StuckAtModel{}, opt)
	return stuckAtResultFrom(res)
}

// stuckAtResultFrom converts a raw search result into the Table-1 stuck-at
// form, shared by the fresh and resumed entry points.
func stuckAtResultFrom(res *Result) *StuckAtResult {
	out := &StuckAtResult{Stats: res.Stats, Status: res.Status}
	for _, s := range res.Solutions {
		var t fault.Tuple
		ok := true
		for _, c := range s.Corrections {
			f, isFault := CorrectionFault(c)
			if !isFault {
				ok = false
				break
			}
			t = append(t, f)
		}
		if ok {
			out.Tuples = append(out.Tuples, t.Canon())
		}
	}
	return out
}

// DiagnosePhysical runs exact diagnosis over a composite physical fault
// model — stuck-at faults plus non-feedback bridging faults between the
// suspects and maxPartners sampled partner nets. It demonstrates the
// paper's extension point: "the algorithm can be adapted to other faults by
// adopting a suitable fault model in the correction stage". Solutions are
// returned as raw correction sets (a mix of StuckAtCorrection and
// BridgeCorrection values).
func DiagnosePhysical(netlist *circuit.Circuit, deviceOut [][]uint64, pi [][]uint64, n int, maxPartners int, opt Options) *Result {
	opt.Exact = true
	model := ModelSet{StuckAtModel{}, NewBridgeModel(netlist, maxPartners, 1)}
	return Run(netlist, deviceOut, pi, n, model, opt)
}

// DiagnosePhysicalContext is DiagnosePhysical with validation, cancellation
// and budgets.
func DiagnosePhysicalContext(ctx context.Context, netlist *circuit.Circuit, deviceOut [][]uint64, pi [][]uint64, n int, maxPartners int, opt Options) (*Result, error) {
	if err := validateInputs(netlist, deviceOut, pi, n); err != nil {
		return nil, err
	}
	opt.Exact = true
	model := ModelSet{StuckAtModel{}, NewBridgeModel(netlist, maxPartners, 1)}
	return RunContext(ctx, netlist, deviceOut, pi, n, model, opt), nil
}

// RepairResult is the DEDC form: the first valid correction set and the
// rectified circuit. When Status is a truncation status the search stopped
// before finding a full correction set: Corrections and Repaired are nil
// but Stats reports the work done, so the caller can retry with a larger
// budget or a relaxed schedule.
type RepairResult struct {
	Corrections []Correction
	Repaired    *circuit.Circuit
	Stats       Stats
	Status      Status
}

// Solved reports whether the repair produced a full correction set.
func (r *RepairResult) Solved() bool { return r != nil && len(r.Corrections) > 0 }

// Repair runs DEDC: find a set of design-error-model corrections that makes
// the implementation match specOut on all vectors, and return the corrected
// netlist. A nil result with an error means the search failed within its
// resource bounds; RepairContext exposes the partial outcome instead.
func Repair(impl *circuit.Circuit, specOut [][]uint64, pi [][]uint64, n int, opt Options) (*RepairResult, error) {
	rep, err := RepairContext(context.Background(), impl, specOut, pi, n, opt)
	if err != nil {
		return nil, err
	}
	if !rep.Solved() {
		return nil, fmt.Errorf("diagnose: no valid correction set found (status=%v, nodes=%d, schedule=%v)",
			rep.Status, rep.Stats.Nodes, rep.Stats.Schedule)
	}
	return rep, nil
}

// RepairContext is Repair under a context and the resource budgets in
// opt.Budget. The returned error is reserved for malformed inputs (sentinel
// errors) and solution-replay failures; a search that stops on a deadline,
// cancellation or an exhausted budget returns a non-nil RepairResult with
// Status set (TimedOut, Cancelled, BudgetExhausted), populated Stats and no
// corrections — graceful degradation instead of a bare nil.
func RepairContext(ctx context.Context, impl *circuit.Circuit, specOut [][]uint64, pi [][]uint64, n int, opt Options) (*RepairResult, error) {
	if err := validateInputs(impl, specOut, pi, n); err != nil {
		return nil, err
	}
	opt.Exact = false
	model := NewErrorModel(impl, 0, 1)
	res := RunContext(ctx, impl, specOut, pi, n, model, opt)
	return repairResultFrom(impl, res)
}

// repairResultFrom converts a raw search result into the DEDC repair form
// (applying the first solution to a clone of the implementation), shared by
// the fresh and resumed entry points.
func repairResultFrom(impl *circuit.Circuit, res *Result) (*RepairResult, error) {
	out := &RepairResult{Stats: res.Stats, Status: res.Status}
	if len(res.Solutions) == 0 {
		return out, nil
	}
	sol := res.Solutions[0]
	fixed := impl.Clone()
	for _, c := range sol.Corrections {
		if err := c.Apply(fixed); err != nil {
			return nil, fmt.Errorf("diagnose: replaying solution: %w", err)
		}
	}
	out.Corrections = sol.Corrections
	out.Repaired = fixed
	return out, nil
}

// AuditRoot expands only the root decision-tree node under the given
// thresholds and returns its ranked correction list — the hook used by the
// §3.2 audits ("valid corrections rank in the top 5% of their node") and the
// ablation benches.
func AuditRoot(netlist *circuit.Circuit, specOut [][]uint64, pi [][]uint64, n int, model Model, opt Options, p Params) []RankedCorrection {
	cands, _ := expandRoot(context.Background(), netlist, specOut, pi, n, model, opt, p)
	return cands
}

// expandRoot is AuditRoot under a context, additionally returning the
// phase-split Stats of the expansion: DiagTime covers path trace plus the
// heuristic-1 suspect ranking, CorrTime the correction enumeration,
// screening and ranking. A tracer carried by ctx wires the sim/pathtrace
// counters and span histograms exactly as a full RunContext would.
func expandRoot(ctx context.Context, netlist *circuit.Circuit, specOut [][]uint64, pi [][]uint64, n int, model Model, opt Options, p Params) ([]RankedCorrection, Stats) {
	r := newExpandRun(ctx, netlist, specOut, pi, n, model, opt, p)
	nd := r.expand(nil)
	for i := 0; r.ensure(nd, i); i++ {
	}
	return nd.cands, r.res.Stats
}

// newExpandRun prepares the run state for standalone node expansions under
// the fixed thresholds p: no schedule, no search, no checkpointing.
func newExpandRun(ctx context.Context, netlist *circuit.Circuit, specOut [][]uint64, pi [][]uint64, n int, model Model, opt Options, p Params) *runState {
	r := newRunState(ctx, netlist, specOut, pi, n, model, opt)
	r.params = p
	return r
}

// Verify checks that a circuit reproduces the reference outputs on the
// vector set.
func Verify(c *circuit.Circuit, refOut [][]uint64, pi [][]uint64, n int) bool {
	out := DeviceOutputs(c, pi, n)
	m := sim.DiffMask(out, refOut, n)
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}
