package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"dedc/internal/bench"
	"dedc/internal/circuit"
	"dedc/internal/diagnose"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/opt"
	"dedc/internal/scan"
)

// table1 is the paper's §4.1 protocol: area-optimized circuits (scan views
// of the sequential rows), 1–4 random observable stuck-at faults, and exact
// diagnosis returning all minimal tuples, bounded only by the Options caps.
// Workers > 1 runs the engine-pool fan-outs.
type table1 struct {
	workers int
	seed    int64
	rows    []*specRow
	sites   [][]fault.Site
	pre     []libOp
}

var table1Circuits = []string{"s1196*", "c880*", "s1238*", "c432*"}

const (
	table1Vectors  = 1024
	table1MaxNodes = 64 // diagnose.Options.MaxNodes: nodes per schedule step
)

func (w *table1) name() string   { return "table1-stuckat" }
func (w *table1) load() loadInfo { return loadInfo{Clients: 1, Workers: w.workers} }
func (w *table1) close()         {}

func (w *table1) setup(seed int64) error {
	w.seed = seed
	w.rows, w.sites = nil, nil
	for _, name := range table1Circuits {
		row, err := buildSpecRow(name, true, table1Vectors)
		if err != nil {
			return err
		}
		w.rows = append(w.rows, row)
		w.sites = append(w.sites, fault.Sites(row.spec))
	}
	var err error
	w.pre, err = pregenerate(w.op)
	return err
}

// suiteView is the combinational view of a suite circuit: scan-converted
// when sequential, area-optimized when asked.
func suiteView(bm gen.Benchmark, optimize bool) (*circuit.Circuit, error) {
	c := bm.Build()
	if bm.Sequential {
		cv, err := scan.Convert(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bm.Name, err)
		}
		c = cv.Comb
	}
	if optimize {
		oc, err := opt.Optimize(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bm.Name, err)
		}
		c = oc
	}
	return c, nil
}

func (w *table1) run(ctx context.Context, env *runEnv) ([]*opRec, window, error) {
	return runLibrary(ctx, env, w.pre, w.op)
}

// op builds op i from the seed.
func (w *table1) op(i int) (libOp, error) {
	r := i % len(w.rows)
	row := w.rows[r]
	k := 1 + (i/len(w.rows))%4
	fs, err := observableFaults(row, w.sites[r], k, opSeed(w.seed, i))
	if err != nil {
		return libOp{}, err
	}
	device := fault.Inject(row.spec, fs...)
	devOut := diagnose.DeviceOutputs(device, row.v.PI, row.v.N)
	return libOp{
		label: row.name,
		run: func(ctx context.Context, o *opRec, tr *tracer, root int) (any, error) {
			// The netlist comes in as .bench text; parsing it again gives
			// the same line numbering as row.spec, so the tuples found
			// name sites of row.spec too.
			var netlist *circuit.Circuit
			var err error
			o.lay.parse = tr.call(o.Index, "bench.ReadString", root, func() { netlist, err = bench.ReadString(row.text) })
			if err != nil {
				return nil, err
			}
			var res *diagnose.StuckAtResult
			d := tr.call(o.Index, "diagnose.DiagnoseStuckAtContext", root, func() {
				res, err = diagnose.DiagnoseStuckAtContext(ctx, netlist, devOut, row.v.PI, row.v.N,
					diagnose.Options{MaxErrors: k, MaxNodes: table1MaxNodes, Workers: w.workers})
			})
			if err != nil {
				return nil, err
			}
			setSearchCounts(o, res.Stats, d)
			if !res.Status.Solved() || len(res.Tuples) == 0 {
				o.Digest = digestOf("unsolved", res.Status.String())
				return nil, nil
			}
			o.Tuples, o.SolSize = int64(len(res.Tuples)), int64(len(res.Tuples[0]))
			o.Sites = int64(fault.DistinctSites(res.Tuples))
			names := make([]string, len(res.Tuples))
			for j, t := range res.Tuples {
				names[j] = t.Key()
			}
			o.Digest = digestOf(strings.Join(names, ";"))
			return res.Tuples, nil
		},
		check: func(o *opRec, ans any) (bool, error) {
			tuples, ok := ans.([]fault.Tuple)
			if !ok {
				return false, nil
			}
			err := checkTuples(row.spec, device, tuples, k, patternsFor(row.spec, row.v.PI, row.v.N), opSeed(w.seed, i))
			return err == nil, err
		},
	}, nil
}

// observableFaults draws k stuck-at faults on distinct sites whose joint
// injection changes some output on the row's vectors.
func observableFaults(row *specRow, sites []fault.Site, k int, seed int64) ([]fault.Fault, error) {
	rng := rand.New(rand.NewSource(seed))
	for tries := 0; tries < 200; tries++ {
		seen := map[fault.Site]bool{}
		var fs []fault.Fault
		for len(fs) < k {
			s := sites[rng.Intn(len(sites))]
			if seen[s] {
				continue
			}
			seen[s] = true
			fs = append(fs, fault.Fault{Site: s, Value: rng.Intn(2) == 1})
		}
		if !diagnose.Verify(fault.Inject(row.spec, fs...), row.specOut, row.v.PI, row.v.N) {
			return fs, nil
		}
	}
	return nil, fmt.Errorf("%s: no observable %d-fault draw in 200 tries", row.name, k)
}
