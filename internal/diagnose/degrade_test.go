package diagnose

import (
	"context"
	"errors"
	"testing"
	"time"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/sim"
)

// unsolvableReference returns PO rows of random noise — no correction set of
// bounded size explains them, so the search runs until a resource limit.
func unsolvableReference(c *circuit.Circuit, n int) [][]uint64 {
	w := sim.Words(n)
	ref := make([][]uint64, len(c.POs))
	for i := range ref {
		ref[i] = make([]uint64, w)
		for j := range ref[i] {
			ref[i][j] = uint64(i+1)*0x9E3779B97F4A7C15 + uint64(j)*0xBF58476D1CE4E5B9
		}
	}
	return ref
}

// TestRepairContextDeadlineReturnsTimedOut is the acceptance scenario: a
// repair on a Suite-scale circuit under a 50ms context deadline must come
// back non-nil with Status TimedOut and populated Stats — not nil, not a
// panic, not an error.
func TestRepairContextDeadlineReturnsTimedOut(t *testing.T) {
	bm, ok := gen.ByName("c3540*")
	if !ok {
		t.Fatal("suite circuit c3540* missing")
	}
	c := bm.Build()
	n := 512
	pi := sim.RandomPatterns(len(c.PIs), n, 35)
	ref := unsolvableReference(c, n)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	rep, err := RepairContext(ctx, c, ref, pi, n, Options{MaxErrors: 3})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("RepairContext error: %v", err)
	}
	if rep == nil {
		t.Fatal("nil result on deadline expiry")
	}
	if rep.Status != StatusTimedOut {
		t.Fatalf("status %v, want TimedOut", rep.Status)
	}
	if rep.Solved() {
		t.Fatal("solved the unsolvable")
	}
	if rep.Stats.Simulations == 0 {
		t.Fatalf("empty stats on timeout: %+v", rep.Stats)
	}
	// Generous bound: the deadline must actually cut the run short (an
	// unbounded search here runs for minutes).
	if elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: ran %v", elapsed)
	}

	// Same scenario through the stuck-at front door.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	res, err := DiagnoseStuckAtContext(ctx2, c, ref, pi, n, Options{MaxErrors: 3})
	if err != nil {
		t.Fatalf("DiagnoseStuckAtContext error: %v", err)
	}
	if res.Status != StatusTimedOut {
		t.Fatalf("stuck-at status %v, want TimedOut", res.Status)
	}
	if res.Stats.Simulations == 0 {
		t.Fatalf("empty stuck-at stats: %+v", res.Stats)
	}
}

// TestTimeBudgetExpiryMidSchedule drives Budget.Time through the status
// plumbing: expiry mid-schedule reports TimedOut with work recorded.
func TestTimeBudgetExpiryMidSchedule(t *testing.T) {
	c := gen.Alu(6)
	n := 512
	pi := sim.RandomPatterns(len(c.PIs), n, 6)
	ref := unsolvableReference(c, n)
	res := Run(c, ref, pi, n, StuckAtModel{}, Options{MaxErrors: 3, Budget: Budget{Time: 30 * time.Millisecond}})
	if res.Status != StatusTimedOut {
		t.Fatalf("status %v, want TimedOut", res.Status)
	}
	if res.Stats.Nodes == 0 && res.Stats.Simulations == 0 {
		t.Fatalf("no work recorded: %+v", res.Stats)
	}
}

// TestSolutionsSurviveTruncation asserts the "already-found solutions stay
// intact" guarantee: an exact enumeration cut off by a node budget keeps the
// tuples found before the cutoff, and each still explains the device.
func TestSolutionsSurviveTruncation(t *testing.T) {
	found := false
	for seed := int64(0); seed < 8 && !found; seed++ {
		c := gen.Random(gen.RandomOptions{PIs: 7, Gates: 60, Seed: seed + 40})
		n := 256
		pi := sim.RandomPatterns(len(c.PIs), n, seed)
		fs := pickDetectedFaults(c, 1, pi, n, seed*13+2)
		if fs == nil {
			continue
		}
		device := fault.Inject(c, fs...)
		devOut := DeviceOutputs(device, pi, n)

		// Learn how much work the full exact enumeration does.
		full := DiagnoseStuckAt(c, devOut, pi, n, Options{MaxErrors: 2})
		if len(full.Tuples) == 0 || full.Status != StatusComplete {
			continue
		}
		// Replay under successively tighter node budgets until one run is
		// both truncated and non-empty.
		for nodes := int64(full.Stats.Nodes) - 1; nodes >= 1; nodes-- {
			res, err := DiagnoseStuckAtContext(context.Background(), c, devOut, pi, n,
				Options{MaxErrors: 2, Budget: Budget{MaxNodes: nodes}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != StatusBudgetExhausted || len(res.Tuples) == 0 {
				continue
			}
			found = true
			for _, tu := range res.Tuples {
				fc := fault.Inject(c, tu...)
				if !Verify(fc, devOut, pi, n) {
					t.Fatalf("seed %d nodes %d: surviving tuple %v invalid", seed, nodes, tu)
				}
			}
			break
		}
	}
	if !found {
		t.Fatal("no seed produced a truncated-but-nonempty enumeration")
	}
}

// TestValidationSentinels exercises the recover-free boundary: each class of
// malformed input maps to its sentinel error.
func TestValidationSentinels(t *testing.T) {
	c := gen.RippleAdder(4)
	n := 64
	pi := sim.RandomPatterns(len(c.PIs), n, 1)
	ref := DeviceOutputs(c, pi, n)

	if _, err := RepairContext(context.Background(), nil, ref, pi, n, Options{}); !errors.Is(err, circuit.ErrInvalidNetlist) {
		t.Fatalf("nil netlist: %v", err)
	}
	if _, err := RepairContext(context.Background(), c, ref, pi[:1], n, Options{}); !errors.Is(err, ErrInvalidVectors) {
		t.Fatalf("short PI rows: %v", err)
	}
	if _, err := RepairContext(context.Background(), c, ref[:1], pi, n, Options{}); !errors.Is(err, ErrInvalidVectors) {
		t.Fatalf("short response rows: %v", err)
	}
	if _, err := RepairContext(context.Background(), c, ref, pi, 0, Options{}); !errors.Is(err, ErrInvalidVectors) {
		t.Fatalf("zero patterns: %v", err)
	}

	// A combinational cycle (not broken by a DFF) must be rejected up front.
	cyc := circuit.New(4)
	a := cyc.AddPI("a")
	g1 := cyc.AddNamedGate("g1", circuit.And)
	g2 := cyc.AddNamedGate("g2", circuit.Or)
	cyc.AppendFanin(g1, a)
	cyc.AppendFanin(g1, g2)
	cyc.AppendFanin(g2, g1)
	cyc.MarkPO(g2)
	cpi := sim.RandomPatterns(1, n, 2)
	cref := [][]uint64{make([]uint64, sim.Words(n))}
	if _, err := RepairContext(context.Background(), cyc, cref, cpi, n, Options{}); !errors.Is(err, circuit.ErrCombinationalCycle) && !errors.Is(err, circuit.ErrInvalidNetlist) {
		t.Fatalf("cyclic netlist: %v", err)
	}
}

// TestReferenceEntryPointsRejectMalformedInputs: the entry points that
// simulate the reference circuit themselves (RepairProven's spec,
// DiagnoseAdaptive's device) reject malformed vectors and references with
// a sentinel error instead of panicking inside the simulator.
func TestReferenceEntryPointsRejectMalformedInputs(t *testing.T) {
	c := gen.RippleAdder(4)
	n := 64
	pi := sim.RandomPatterns(len(c.PIs), n, 1)
	short := make([][]uint64, len(pi))
	for i := range short {
		short[i] = pi[i][:0]
	}
	cases := []struct {
		name string
		ref  *circuit.Circuit
		pi   [][]uint64
		n    int
		want error
	}{
		{"too few PI rows", c, pi[:2], n, ErrInvalidVectors},
		{"PI rows too short", c, short, n, ErrInvalidVectors},
		{"zero patterns", c, pi, 0, ErrInvalidVectors},
		{"nil reference", nil, pi, n, circuit.ErrInvalidNetlist},
		{"reference interface differs", gen.RippleAdder(3), pi, n, circuit.ErrInvalidNetlist},
	}
	for _, tc := range cases {
		if _, err := RepairProven(c, tc.ref, tc.pi, tc.n, Options{}, 0, 0); !errors.Is(err, tc.want) {
			t.Errorf("RepairProven, %s: err = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := DiagnoseAdaptive(c, tc.ref, tc.pi, tc.n, Options{}, 0, 0); !errors.Is(err, tc.want) {
			t.Errorf("DiagnoseAdaptive, %s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestStatusStrings pins the rendering used in reports and CLI output.
func TestStatusStrings(t *testing.T) {
	cases := map[Status]string{
		StatusComplete:        "Complete",
		StatusFirstSolution:   "FirstSolution",
		StatusTimedOut:        "TimedOut",
		StatusCancelled:       "Cancelled",
		StatusBudgetExhausted: "BudgetExhausted",
		Status(99):            "Status(?)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d renders %q, want %q", int(s), s.String(), want)
		}
	}
	if !StatusComplete.Solved() || !StatusFirstSolution.Solved() || StatusTimedOut.Solved() {
		t.Fatal("Solved() classification wrong")
	}
}
