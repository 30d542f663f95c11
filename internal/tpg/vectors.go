package tpg

import (
	"context"
	"math/rand"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/sim"
	"dedc/internal/telemetry"
)

// Options configures BuildVectors.
type Options struct {
	// Random is the number of random patterns (the paper uses 6,000–10,000).
	Random int
	Seed   int64
	// Deterministic enables the PODEM pass over undetected collapsed faults.
	Deterministic bool
	// BacktrackLimit for the PODEM pass (default 2000).
	BacktrackLimit int
	// Workers fans the deterministic pass's per-fault Generate calls across
	// this many goroutines (0 or 1 = the sequential legacy loop). Per-fault
	// searches are independent and results fold in original fault order, so
	// the produced vector set is bit-identical at any worker count; Workers
	// is pure wall-clock. Cache keys therefore exclude it.
	Workers int
}

// Result carries the produced vector set and generation statistics.
type Result struct {
	PI [][]uint64 // one row per primary input
	N  int        // pattern count

	Coverage   float64 // stuck-at coverage of collapsed faults
	Generated  int     // deterministic tests produced
	Untestable int     // faults proven redundant
	// Proven counts the faults, part of Untestable, that the redundancy
	// proof settled before PODEM (constant lines and blocked paths).
	Proven     int
	Aborted    int   // faults abandoned at the backtrack limit
	Backtracks int64 // total PODEM backtracks across the deterministic pass
	Evals      int64 // gate evaluations made by PODEM implication
	// Cancelled is set when the deterministic pass stopped early on context
	// cancellation; the vector set holds everything produced up to that
	// point and Coverage reflects the partial set.
	Cancelled bool
}

// BuildVectors produces the vector set V used by the diagnosis experiments:
// Random patterns first, then (optionally) one deterministic PODEM test for
// every collapsed stuck-at fault the random set missed. Before PODEM, a
// redundancy proof (SAT-proven constant lines and blocked paths) settles
// part of the missed faults as Untestable without search; on a
// combinational circuit every other missed fault gets its own PODEM run.
// Faults are not dropped as tests are added. Once tests were added, the
// missed faults are fault-simulated again for Coverage. Don't-care PI
// positions are filled randomly.
func BuildVectors(c *circuit.Circuit, opt Options) *Result {
	return BuildVectorsContext(context.Background(), c, opt)
}

// BuildVectorsContext is BuildVectors under a context: the redundancy proof
// polls for cancellation inside its SAT queries and keeps what it proved,
// and the PODEM pass polls between faults (and, via Podem.Ctx, inside each
// per-fault search), returning the partial vector set with
// Result.Cancelled set instead of discarding work already done.
func BuildVectorsContext(ctx context.Context, c *circuit.Circuit, opt Options) *Result {
	if opt.Random <= 0 {
		opt.Random = 1024
	}
	tr := telemetry.FromContext(ctx)
	ctx, span := tr.StartSpan(ctx, "atpg",
		telemetry.Int("random", opt.Random), telemetry.Bool("deterministic", opt.Deterministic))
	rng := rand.New(rand.NewSource(opt.Seed))
	rows := sim.RandomPatterns(len(c.PIs), opt.Random, rng.Int63())
	res := &Result{PI: rows, N: opt.Random}
	defer func() {
		span.End(
			telemetry.Int("n", res.N),
			telemetry.Float("coverage", res.Coverage),
			telemetry.Int("generated", res.Generated),
			telemetry.Int("untestable", res.Untestable),
			telemetry.Int("proven", res.Proven),
			telemetry.Int("aborted", res.Aborted),
			telemetry.Int64("backtracks", res.Backtracks),
			telemetry.Int64("evals", res.Evals),
			telemetry.Bool("cancelled", res.Cancelled))
	}()
	reps, _ := fault.Collapse(c)
	e := sim.NewEngine(c, res.PI, res.N)
	det := fault.DetectedOn(e, reps)

	if opt.Deterministic {
		var missed []int // indices into reps
		for i := range reps {
			if !det[i] {
				missed = append(missed, i)
			}
		}
		// The redundancy proof settles part of the missed faults as
		// Untestable; the rest go to PODEM in their original order. A proven
		// fault would have added no pattern under PODEM either, so the
		// vector set is the same as when every missed fault is searched.
		var prove *prover
		if len(missed) > 0 && !c.IsSequential() {
			prove = newProver(ctx, e)
		}
		var remaining []fault.Fault
		for _, i := range missed {
			if prove != nil && prove.untestable(reps[i]) {
				res.Proven++
				continue
			}
			remaining = append(remaining, reps[i])
		}
		res.Untestable = res.Proven
		tr.Registry().Counter("tpg.proven", "Missed faults proven untestable before PODEM.").Add(int64(res.Proven))
		// generateAll runs the per-fault PODEM searches — sequentially or
		// over opt.Workers goroutines — and hands back outcomes in fault
		// order, so everything below (pattern append order, the don't-care
		// rng stream, the counters) is identical at any worker count.
		outs, backtracks, evals, cancelled := generateAll(ctx, c, remaining, opt, tr)
		res.Cancelled = cancelled
		var extra [][]v3
		for i := range outs {
			if !outs[i].done {
				continue
			}
			switch outs[i].result {
			case Untestable:
				res.Untestable++
			case Aborted:
				res.Aborted++
			case TestFound:
				res.Generated++
				extra = append(extra, outs[i].assign)
			}
		}
		res.Backtracks, res.Evals = backtracks, evals
		if len(extra) > 0 {
			appendPatterns(res, extra, rng)
			// Detection is monotone in the pattern set and appendPatterns
			// keeps the first N patterns, so only the missed faults can
			// change verdict.
			faults := make([]fault.Fault, len(missed))
			for k, i := range missed {
				faults[k] = reps[i]
			}
			for k, d := range fault.Detected(c, faults, res.PI, res.N) {
				det[missed[k]] = d
			}
		}
	}

	res.Coverage = fault.Coverage(det)
	return res
}

// appendPatterns packs ternary PI assignments onto the end of the vector
// set, filling don't-cares randomly.
func appendPatterns(res *Result, pats [][]v3, rng *rand.Rand) {
	newN := res.N + len(pats)
	w := sim.Words(newN)
	oldW := sim.Words(res.N)
	for i := range res.PI {
		row := make([]uint64, w)
		copy(row, res.PI[i])
		// Bits beyond the old pattern count are unspecified garbage (random
		// pattern rows fill whole words); clear them so the new patterns
		// land on zeroed ground.
		row[oldW-1] &= sim.TailMask(res.N)
		res.PI[i] = row
	}
	for k, pat := range pats {
		v := res.N + k
		for i := range res.PI {
			bit := pat[i]
			set := bit == t3 || (bit == x3 && rng.Intn(2) == 1)
			if set {
				res.PI[i][v/64] |= 1 << (uint(v) % 64)
			}
		}
	}
	res.N = newN
}

// ApplyAssignment converts a ternary PI assignment into a single-pattern
// input matrix, filling don't-cares with fill.
func ApplyAssignment(c *circuit.Circuit, assign []v3, fill bool) [][]uint64 {
	rows := make([][]uint64, len(c.PIs))
	for i := range rows {
		rows[i] = make([]uint64, 1)
		set := assign[i] == t3 || (assign[i] == x3 && fill)
		if set {
			rows[i][0] = 1
		}
	}
	return rows
}

// WeightedRandom produces n patterns where each PI is 1 with the given
// probability — useful for exciting deep AND/OR structures that uniform
// patterns rarely reach.
func WeightedRandom(nPI, n int, p float64, seed int64) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	w := sim.Words(n)
	rows := make([][]uint64, nPI)
	for i := range rows {
		rows[i] = make([]uint64, w)
		for v := 0; v < n; v++ {
			if rng.Float64() < p {
				rows[i][v/64] |= 1 << (uint(v) % 64)
			}
		}
	}
	return rows
}
