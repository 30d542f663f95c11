package diagnose

import (
	"context"
	"fmt"
	"math/bits"
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/sim"
)

// failSpaceCase is one node to expand: a netlist, the reference responses
// it is diagnosed against, and the correction model.
type failSpaceCase struct {
	kind    string // correction model family
	name    string
	netlist *circuit.Circuit
	specOut [][]uint64
	pi      [][]uint64
	n       int
	model   Model
}

// failSpaceCases builds random circuits under the design-error, stuck-at and
// bridging models over pattern counts that are not multiples of 64 (and one
// single-word count), so the node fail counts land both below and above
// the last word boundary of V.
func failSpaceCases(t testing.TB) []failSpaceCase {
	t.Helper()
	var cases []failSpaceCase
	for seed := int64(1); seed <= 4; seed++ {
		for _, n := range []int{40, 100, 200} {
			cases = append(cases, modelCases(t, seed, seed, n)...)
		}
	}
	return cases
}

// modelCases builds one random circuit (seeded by cseed) with n random
// patterns and, from eseed, up to one case per correction model: a device
// with injected design errors, stuck-at faults, or a bridging fault.
func modelCases(t testing.TB, cseed, eseed int64, n int) []failSpaceCase {
	t.Helper()
	var cases []failSpaceCase
	c := gen.Random(gen.RandomOptions{PIs: 12, Gates: 60, Seed: cseed})
	pi := sim.RandomPatterns(len(c.PIs), n, eseed*31+int64(n))
	add := func(kind string, dev *circuit.Circuit, m Model) {
		cases = append(cases, failSpaceCase{
			kind: kind, name: fmt.Sprintf("%s/seed%d.%d/n%d", kind, cseed, eseed, n),
			netlist: c, specOut: DeviceOutputs(dev, pi, n), pi: pi, n: n, model: m,
		})
	}
	if dev, _, err := injectK(c, 1+int(eseed&1), eseed); err == nil {
		add("design", dev, NewErrorModel(c, 0, eseed))
	}
	if fs := fault.PickObservable(c, 2, eseed); fs != nil {
		add("stuckat", fault.Inject(c, fs...), StuckAtModel{})
	}
	bm := NewBridgeModel(c, 12, eseed)
	for l := circuit.Line(c.NumLines() - 1); l >= 0; l-- {
		if cs := bm.Enumerate(c, l); len(cs) > 0 {
			dev, err := fault.InjectBridge(c, cs[0].(BridgeCorrection).Br)
			if err != nil {
				t.Fatal(err)
			}
			add("bridge", dev, ModelSet{StuckAtModel{}, bm})
			break
		}
	}
	return cases
}

// fullWidthTheorem1 is the Theorem-1 verdict computed without the Verr
// engine: a local evaluation over all of V on the node's full engine,
// counting complemented bits under failMask.
func fullWidthTheorem1(ec *expandCtx, h2 float64, corr Correction) bool {
	e := ec.full.e
	cand := make([]uint64, e.W)
	corr.NewValues(e, cand)
	base := e.BaseVal(corr.Target())
	comp := 0
	for w := range cand {
		comp += bits.OnesCount64((cand[w] ^ base[w]) & ec.full.mask[w])
	}
	return float64(comp) >= h2*float64(ec.fails)-1e-9
}

// fullWidthH1 is heuristic 1 computed without the Verr engine: invert l's
// values under failMask on the full engine, propagate, and count the
// erroneous bits of every PO that turn correct.
func fullWidthH1(ec *expandCtx, l circuit.Line) int {
	e := ec.full.e
	base := e.BaseVal(l)
	forced := make([]uint64, e.W)
	for w := range forced {
		forced[w] = base[w] ^ ec.full.mask[w]
	}
	e.Trial(l, forced)
	rect := 0
	for i, po := range e.C.POs {
		tv := e.TrialVal(po)
		for w := range tv {
			rect += bits.OnesCount64(ec.full.diff[i][w] &^ (tv[w] ^ ec.full.spec[i][w]))
		}
	}
	return rect
}

// nodeCtx simulates the case's netlist and builds the root node's context.
// With compact unset the full view doubles as the Verr view — the engine
// as it ran before the failing-vector compaction.
func nodeCtx(r *runState, fc failSpaceCase, compact bool) *expandCtx {
	ec := r.newExpandCtx(sim.NewEngine(fc.netlist, fc.pi, fc.n))
	if ec.fails == 0 {
		return ec
	}
	if compact {
		ec.verr = r.failSpace(ec.full, ec.fails)
	} else {
		ec.verr = ec.full
	}
	return ec
}

// rankAll runs a node's diagnosis and correction steps on ec and drains
// its ranking, as AuditRoot does.
func rankAll(r *runState, ec *expandCtx) []RankedCorrection {
	nd := &node{rank: r.candidates(ec)}
	for i := 0; r.ensure(nd, i); i++ {
	}
	return nd.cands
}

// TestFailSpaceParity: for every enumerated candidate the Theorem-1 verdict,
// every line's heuristic-1 rectified count and the counts a Verr trial
// bounds the rank with equal a full-width computation over failMask, and a
// whole expansion ranks the same candidates with the same Stats as one run
// at full width: eagerly and lazily.
func TestFailSpaceParity(t *testing.T) {
	p := DefaultSchedule()[2]
	compacted, inPlace := map[string]int{}, map[string]int{}
	for _, fc := range failSpaceCases(t) {
		r := newExpandRun(context.Background(), fc.netlist, fc.specOut, fc.pi, fc.n, fc.model,
			Options{MaxErrors: 2, Workers: 1}, p)
		ec := nodeCtx(r, fc, true)
		if ec.fails == 0 {
			continue
		}
		if ec.verr.e == ec.full.e {
			inPlace[fc.kind]++
		} else {
			compacted[fc.kind]++
			if ec.verr.e.W != sim.Words(ec.fails) || ec.verr.e.W >= ec.full.e.W {
				t.Fatalf("%s: Verr engine is %d words for %d fails of %d", fc.name, ec.verr.e.W, ec.fails, fc.n)
			}
		}
		for l := circuit.Line(0); int(l) < fc.netlist.NumLines(); l++ {
			if got, want := r.h1Trial(ec, l), fullWidthH1(ec, l); got != want {
				t.Fatalf("%s: H1 at L%d: Verr engine %d, full width %d", fc.name, l, got, want)
			}
			for _, corr := range fc.model.Enumerate(fc.netlist, l) {
				for _, h2 := range []float64{0.3, 0.7, 1} {
					r.params.H2 = h2
					if got, want := r.theorem1(ec, corr), fullWidthTheorem1(ec, h2, corr); got != want {
						t.Fatalf("%s: Theorem 1 (h2=%v) for %v: Verr engine %v, full width %v", fc.name, h2, corr, got, want)
					}
				}
				corr.NewValues(ec.verr.e, r.rows.cand[:ec.verr.e.W])
				bound := r.verrTrial(ec, corr)
				full := r.screenTrial(ec, corr)
				if full.outcome == screenKept {
					if bound.rect != full.rect || bound.fixes != full.fixes {
						t.Fatalf("%s: %v: Verr trial rect/fixes %d/%d, full width %d/%d", fc.name, corr,
							bound.rect, bound.fixes, full.rect, full.fixes)
					}
					if b, rank := r.rankCorrection(ec, corr, bound).Rank, r.rankCorrection(ec, corr, full).Rank; b < rank {
						t.Fatalf("%s: %v: bound %v below rank %v", fc.name, corr, b, rank)
					}
				}
			}
		}

		ref := newExpandRun(context.Background(), fc.netlist, fc.specOut, fc.pi, fc.n, fc.model,
			Options{MaxErrors: 2, Workers: 1, Exact: true}, p)
		want := rankAll(ref, nodeCtx(ref, fc, false))
		for i := 1; i < len(want); i++ {
			if a, b := want[i-1], want[i]; a.Rank < b.Rank || a.Rank == b.Rank && a.C.String() > b.C.String() {
				t.Fatalf("%s: %v (rank %v) ranked before %v (rank %v)", fc.name, a.C, a.Rank, b.C, b.Rank)
			}
		}
		for _, exact := range []bool{true, false} {
			run := newExpandRun(context.Background(), fc.netlist, fc.specOut, fc.pi, fc.n, fc.model,
				Options{MaxErrors: 2, Workers: 1, Exact: exact}, p)
			got := rankAll(run, nodeCtx(run, fc, true))
			label := fmt.Sprintf("%s/exact=%v", fc.name, exact)
			sameRanking(t, label, got, want)
			g, w := run.res.Stats, ref.res.Stats
			if g.Candidates != w.Candidates || g.Screened != w.Screened || g.Trials != w.Trials ||
				g.H3Rejected != w.H3Rejected || g.Simulations != w.Simulations {
				t.Fatalf("%s: stats cand/screened/trials/h3/sims %d/%d/%d/%d/%d, full width %d/%d/%d/%d/%d", label,
					g.Candidates, g.Screened, g.Trials, g.H3Rejected, g.Simulations,
					w.Candidates, w.Screened, w.Trials, w.H3Rejected, w.Simulations)
			}
		}
	}
	for _, kind := range []string{"design", "stuckat", "bridge"} {
		if compacted[kind] == 0 || inPlace[kind] == 0 {
			t.Errorf("%s cases cover %d compacted and %d in-place Verr engines; want both",
				kind, compacted[kind], inPlace[kind])
		}
	}
}

func sameRanking(t *testing.T, label string, got, want []RankedCorrection) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ranked candidates, full width %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.C.String() != w.C.String() || g.Rank != w.Rank || g.H1Score != w.H1Score ||
			g.H3Score != w.H3Score || g.NewFails != w.NewFails || g.Fixes != w.Fixes {
			t.Fatalf("%s: candidate %d is %v (rank %v), full width %v (rank %v)", label, i, g.C, g.Rank, w.C, w.Rank)
		}
	}
}
