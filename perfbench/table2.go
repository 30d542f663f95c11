package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"dedc/internal/bench"
	"dedc/internal/circuit"
	"dedc/internal/diagnose"
	"dedc/internal/errmodel"
	"dedc/internal/gen"
	"dedc/internal/tpg"
)

// table2 is the paper's §4.2 protocol: unoptimized ISCAS-like circuits,
// three Campenhout design errors, first-solution repair over a 2048-vector
// V built in setup. Each op is bounded by a counted simulation budget,
// which also forces the engine's sequential path. Ops with four errors
// solved within the budget about one time in eight; as a quarter of a run's
// ops solved, the solved fraction moved by a quarter between seeds.
type table2 struct {
	seed int64
	rows []*specRow
	pre  []libOp
}

// table2Circuits are the gen.Suite rows the workload cycles through.
var table2Circuits = []string{"c880*", "c432*"}

const (
	table2Errors  = 3 // design errors per op
	table2Vectors = 2048
	table2Budget  = 3000 // diagnose.Budget.MaxSimulations per op
)

// specRow is one specification circuit with its vector set and responses.
type specRow struct {
	name    string
	text    string // spec as .bench text
	spec    *circuit.Circuit
	v       *tpg.Result
	specOut [][]uint64
}

func (w *table2) name() string   { return "table2-repair" }
func (w *table2) load() loadInfo { return loadInfo{Clients: 1, Workers: 1} }
func (w *table2) close()         {}

func (w *table2) setup(seed int64) error {
	w.seed = seed
	w.rows = nil
	for _, name := range table2Circuits {
		row, err := buildSpecRow(name, false, table2Vectors)
		if err != nil {
			return err
		}
		w.rows = append(w.rows, row)
	}
	var err error
	w.pre, err = pregenerate(w.op)
	return err
}

// buildSpecRow builds a suite circuit (scan-converted and area-optimized
// when asked), passes it through .bench text as the program would receive
// it, and makes its random vector set and responses.
func buildSpecRow(name string, optimize bool, vectors int) (*specRow, error) {
	bm, ok := gen.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown suite circuit %q", name)
	}
	c, err := suiteView(bm, optimize)
	if err != nil {
		return nil, err
	}
	return specRowOf(name, c, vectors)
}

// vectorSeed draws every random vector set. Circuits and their vector
// sets are fixed parts of a workload; the run seed draws the errors,
// faults and netlists of its ops, so another seed changes the instances
// without making every op of a run harder or easier at once.
const vectorSeed = 1

// specRowOf is buildSpecRow for an already built circuit.
func specRowOf(name string, c *circuit.Circuit, vectors int) (*specRow, error) {
	text, err := bench.WriteString(c)
	if err != nil {
		return nil, err
	}
	if c, err = bench.ReadString(text); err != nil {
		return nil, err
	}
	v := tpg.BuildVectors(c, tpg.Options{Random: vectors, Seed: vectorSeed})
	return &specRow{name: name, text: text, spec: c, v: v, specOut: diagnose.DeviceOutputs(c, v.PI, v.N)}, nil
}

func (w *table2) run(ctx context.Context, env *runEnv) ([]*opRec, window, error) {
	return runLibrary(ctx, env, w.pre, w.op)
}

// op builds op i from the seed.
func (w *table2) op(i int) (libOp, error) {
	row := w.rows[i%len(w.rows)]
	bad, _, err := errmodel.Inject(row.spec, table2Errors, errmodel.InjectOptions{
		Seed: opSeed(w.seed, i), CheckPatterns: row.v.PI, N: row.v.N})
	if err != nil {
		return libOp{}, err
	}
	text, err := bench.WriteString(bad)
	if err != nil {
		return libOp{}, err
	}
	return libOp{
		label: row.name,
		run: func(ctx context.Context, o *opRec, tr *tracer, root int) (any, error) {
			return repairOp(ctx, o, tr, root, text, row, diagnose.Options{
				MaxErrors: table2Errors, Workers: 1, Budget: diagnose.Budget{MaxSimulations: table2Budget}})
		},
		check: func(o *opRec, ans any) (bool, error) {
			return checkRepairAnswer(ans, row, opSeed(w.seed, i))
		},
	}, nil
}

// repairAnswer is a repair op's output as a user gets it: the corrections
// and the repaired netlist as .bench text.
type repairAnswer struct {
	corrections []string
	repaired    string
}

// repairOp is the timed part of a repair: parse the erroneous netlist and
// run first-solution repair against the reference responses.
func repairOp(ctx context.Context, o *opRec, tr *tracer, root int, text string, row *specRow, opt diagnose.Options) (any, error) {
	var impl *circuit.Circuit
	var err error
	o.lay.parse = tr.call(o.Index, "bench.ReadString", root, func() { impl, err = bench.ReadString(text) })
	if err != nil {
		return nil, err
	}
	var rep *diagnose.RepairResult
	d := tr.call(o.Index, "diagnose.RepairContext", root, func() {
		rep, err = diagnose.RepairContext(ctx, impl, row.specOut, row.v.PI, row.v.N, opt)
	})
	if err != nil {
		return nil, err
	}
	setSearchCounts(o, rep.Stats, d)
	if !rep.Solved() {
		o.Digest = digestOf("unsolved", rep.Status.String())
		return nil, nil
	}
	ans := repairAnswer{}
	for _, c := range rep.Corrections {
		ans.corrections = append(ans.corrections, c.String())
	}
	if ans.repaired, err = bench.WriteString(rep.Repaired); err != nil {
		return nil, err
	}
	o.Tuples, o.SolSize = 1, int64(len(rep.Corrections))
	o.Digest = digestOf(strings.Join(ans.corrections, ";"), ans.repaired)
	return ans, nil
}

// setSearchCounts copies a search's exact counts into the op record and,
// on a traced run, splits the call's wall time d into the engine's own
// diagnosis and correction timers and the rest of the call.
func setSearchCounts(o *opRec, s diagnose.Stats, d time.Duration) {
	o.Nodes, o.Trials, o.Candidates, o.Screened = int64(s.Nodes), int64(s.Trials), s.Candidates, int64(s.Screened)
	o.Simulations, o.Verified = s.Simulations, int64(s.Verified)
	if d > 0 {
		o.lay.diag += s.DiagTime
		o.lay.corr += s.CorrTime
		o.lay.other += d - s.DiagTime - s.CorrTime
	}
}

// checkRepairAnswer re-parses the repaired netlist and checks it against
// the specification. A nil answer is an unsolved op.
func checkRepairAnswer(ans any, row *specRow, permSeed int64) (bool, error) {
	a, ok := ans.(repairAnswer)
	if !ok {
		return false, nil
	}
	if len(a.corrections) == 0 {
		return false, fmt.Errorf("solved without corrections")
	}
	c, err := bench.ReadString(a.repaired)
	if err != nil {
		return false, err
	}
	if err := checkRepair(c, row.spec, patternsFor(row.spec, row.v.PI, row.v.N), permSeed); err != nil {
		return false, err
	}
	return true, nil
}
