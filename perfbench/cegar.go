package main

import (
	"context"
	"strings"

	"dedc/internal/bench"
	"dedc/internal/circuit"
	"dedc/internal/diagnose"
	"dedc/internal/equiv"
	"dedc/internal/errmodel"
	"dedc/internal/gen"
)

// cegar runs counterexample-guided proven repair: repair on a weak vector
// set of 32 random patterns, SAT-check against the specification, fold the
// counterexample back into V and repeat. Each op has one design error:
// with two, a tenth of the ops took five to fifty times the median, and the
// p90 moved by a third between seeds. The circuits have few enough inputs
// for the checker to confirm each proven repair exhaustively.
type cegar struct {
	seed int64
	rows []*specRow
	pre  []libOp
}

// cegarCircuits are small-input circuits of four families.
var cegarCircuits = []struct {
	name  string
	build func() *circuit.Circuit
}{
	{"alu4", func() *circuit.Circuit { return gen.Alu(4) }},
	{"mult4", func() *circuit.Circuit { return gen.ArrayMultiplier(4) }},
	{"ecc8", func() *circuit.Circuit { return gen.ECC(8, false) }},
	{"rnd14", func() *circuit.Circuit { return gen.Random(gen.RandomOptions{PIs: 14, Gates: 160, Seed: 14}) }},
}

const (
	cegarErrors    = 1 // design errors per op
	cegarVectors   = 32
	cegarBudget    = 5000 // diagnose.Budget.MaxSimulations per repair
	cegarIters     = 8
	cegarConflicts = 20000 // SAT conflict limit per proof attempt
)

func (w *cegar) name() string   { return "cegar-proof" }
func (w *cegar) load() loadInfo { return loadInfo{Clients: 1, Workers: 1} }
func (w *cegar) close()         {}

func (w *cegar) setup(seed int64) error {
	w.seed = seed
	w.rows = nil
	for _, cc := range cegarCircuits {
		row, err := specRowOf(cc.name, cc.build(), cegarVectors)
		if err != nil {
			return err
		}
		w.rows = append(w.rows, row)
	}
	var err error
	w.pre, err = pregenerate(w.op)
	return err
}

func (w *cegar) run(ctx context.Context, env *runEnv) ([]*opRec, window, error) {
	return runLibrary(ctx, env, w.pre, w.op)
}

// op builds op i from the seed.
func (w *cegar) op(i int) (libOp, error) {
	row := w.rows[i%len(w.rows)]
	bad, _, err := errmodel.Inject(row.spec, cegarErrors, errmodel.InjectOptions{
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
			var impl *circuit.Circuit
			var err error
			o.lay.parse = tr.call(o.Index, "bench.ReadString", root, func() { impl, err = bench.ReadString(text) })
			if err != nil {
				return nil, err
			}
			var res *diagnose.ProvenResult
			d := tr.call(o.Index, "diagnose.RepairProven", root, func() {
				res, err = diagnose.RepairProven(impl, row.spec, row.v.PI, row.v.N, diagnose.Options{
					MaxErrors: cegarErrors, Workers: 1, Budget: diagnose.Budget{MaxSimulations: cegarBudget}},
					cegarIters, cegarConflicts)
			})
			if err != nil {
				// A round whose repair found no correction set within
				// its budget is an unsolved op; anything else failed.
				if !strings.Contains(err.Error(), "no valid correction set") {
					return nil, err
				}
				o.lay.other += d // no Stats come back to split the call
				o.Digest = digestOf("unsolved")
				return nil, nil
			}
			setSearchCounts(o, res.Stats, d)
			o.Iterations, o.Added = int64(res.Iterations), int64(res.AddedVectors)
			if !res.Proven {
				o.Digest = digestOf("unproven", res.Status.String())
				return nil, nil
			}
			if tr.on {
				var eq *equiv.Result
				o.lay.equiv = tr.call(o.Index, "equiv.Check", root, func() {
					eq, err = equiv.Check(row.spec, res.Repaired, equiv.Options{MaxConflicts: cegarConflicts})
				})
				if err != nil {
					return nil, err
				}
				o.lay.conflicts = eq.Conflicts
			}
			repaired, err := bench.WriteString(res.Repaired)
			if err != nil {
				return nil, err
			}
			var corr []string
			for _, c := range res.Corrections {
				corr = append(corr, c.String())
			}
			o.Tuples, o.SolSize = 1, int64(len(res.Corrections))
			o.Digest = digestOf(strings.Join(corr, ";"), repaired)
			return repaired, nil
		},
		check: func(o *opRec, ans any) (bool, error) {
			text, ok := ans.(string)
			if !ok {
				return false, nil
			}
			c, err := bench.ReadString(text)
			if err != nil {
				return false, err
			}
			err = checkProven(c, row.spec)
			return err == nil, err
		},
	}, nil
}
