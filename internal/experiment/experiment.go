// Package experiment implements the paper's evaluation harness: the
// stuck-at fault study of Table 1, the design-error study of Table 2, the
// fault-masking observation of §4.1 and the correction-rank audit of §3.2.
// The same runners back the root-level benchmarks, the harness tests and
// cmd/tables.
package experiment

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"dedc/internal/circuit"
	"dedc/internal/diagnose"
	"dedc/internal/errmodel"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/opt"
	"dedc/internal/scan"
	"dedc/internal/telemetry"
	"dedc/internal/tpg"
)

// Config controls an experiment run.
type Config struct {
	Trials  int   // experiments per cell (paper: 10)
	Vectors int   // random vectors in V (paper: 6,000–10,000)
	Seed    int64 // base seed; trial t uses Seed + t
	// Deterministic adds a PODEM pass to the vector set.
	Deterministic bool
	// MaxNodes caps each diagnosis run's tree (0 = diagnose default).
	MaxNodes int
	// Workers is each diagnosis run's Options.Workers: the verification
	// gate's re-simulation shards (0 = GOMAXPROCS, 1 = sequential; results
	// are identical for any value).
	Workers int
	// RunBudget bounds each diagnosis run's wall-clock time (default 30s).
	RunBudget time.Duration
	// Ctx, when non-nil, flows into every vector-generation and diagnosis
	// run: cancellation stops the harness between (and inside) runs, and a
	// telemetry tracer carried by the context journals each run.
	Ctx context.Context
}

// ctx returns the configured context or Background.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// Defaults fills unset fields.
func (c Config) defaults() Config {
	if c.Trials == 0 {
		c.Trials = 10
	}
	if c.Vectors == 0 {
		c.Vectors = 2048
	}
	if c.RunBudget == 0 {
		c.RunBudget = 30 * time.Second
	}
	return c
}

// Prepare builds the combinational, optionally area-optimized view of a
// benchmark plus its vector set. Sequential circuits are scan-converted
// first (the paper's full-scan treatment). When cfg.Ctx carries a tracer the
// whole build is wrapped in a "prepare" span, so journals and the
// span.prepare.dur_ns histogram separate setup cost from diagnosis cost.
func Prepare(bm gen.Benchmark, optimize bool, cfg Config) (_ *circuit.Circuit, _ *tpg.Result, err error) {
	cfg = cfg.defaults()
	ctx, sp := telemetry.FromContext(cfg.ctx()).StartSpan(cfg.ctx(), "prepare",
		telemetry.String("circuit", bm.Name))
	cfg.Ctx = ctx
	defer func() { sp.End(telemetry.Bool("ok", err == nil)) }()
	c := bm.Build()
	if bm.Sequential {
		cv, err := scan.Convert(c)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", bm.Name, err)
		}
		c = cv.Comb
	}
	if optimize {
		oc, err := opt.Optimize(c)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", bm.Name, err)
		}
		c = oc
	}
	vecs := tpg.BuildVectorsContext(cfg.ctx(), c, tpg.Options{
		Random:        cfg.Vectors,
		Seed:          cfg.Seed,
		Deterministic: cfg.Deterministic,
	})
	return c, vecs, nil
}

// Table1Cell aggregates one (circuit, fault count) cell of Table 1.
type Table1Cell struct {
	Faults    int
	Runs      int
	AvgSites  float64       // avg distinct fault sites over all tuples
	AvgTuples float64       // avg equivalent minimal tuples
	TimeTuple time.Duration // avg time to discover one tuple
	Masked    int           // runs explained by tuples smaller than injected
	Failed    int           // runs with no explanation found within bounds
}

// Table1Row is one circuit row of Table 1.
type Table1Row struct {
	Name  string
	Lines int
	Cells []Table1Cell
}

// RunTable1Row reproduces one row of Table 1: the circuit is optimized for
// area, corrupted with k random stuck-at faults (k over faultCounts, Trials
// times each), and diagnosed exhaustively; all minimal equivalent fault
// tuples are collected.
func RunTable1Row(bm gen.Benchmark, faultCounts []int, cfg Config) (Table1Row, error) {
	cfg = cfg.defaults()
	c, vecs, err := Prepare(bm, true, cfg)
	if err != nil {
		return Table1Row{}, err
	}
	row := Table1Row{Name: bm.Name, Lines: c.LineCount()}
	for _, k := range faultCounts {
		cell := Table1Cell{Faults: k}
		for t := 0; t < cfg.Trials; t++ {
			seed := cfg.Seed + int64(t)*7919 + int64(k)*104729
			fs := randomObservableFaults(c, k, vecs.PI, vecs.N, seed)
			if fs == nil {
				cell.Failed++
				continue
			}
			device := fault.Inject(c, fs...)
			devOut := diagnose.DeviceOutputs(device, vecs.PI, vecs.N)
			start := time.Now()
			res, derr := diagnose.DiagnoseStuckAtContext(cfg.ctx(), c, devOut, vecs.PI, vecs.N, diagnose.Options{
				MaxErrors: k,
				MaxNodes:  cfg.MaxNodes,
				Budget:    diagnose.Budget{Time: cfg.RunBudget},
				Workers:   cfg.Workers,
			})
			if derr != nil {
				return Table1Row{}, derr
			}
			elapsed := time.Since(start)
			cell.Runs++
			if len(res.Tuples) == 0 {
				cell.Failed++
				continue
			}
			cell.AvgTuples += float64(len(res.Tuples))
			cell.AvgSites += float64(fault.DistinctSites(res.Tuples))
			cell.TimeTuple += elapsed / time.Duration(len(res.Tuples))
			if len(res.Tuples[0]) < k {
				cell.Masked++
			}
		}
		if n := cell.Runs - cell.Failed; n > 0 {
			cell.AvgTuples /= float64(n)
			cell.AvgSites /= float64(n)
			cell.TimeTuple /= time.Duration(n)
		}
		row.Cells = append(row.Cells, cell)
	}
	return row, nil
}

// randomObservableFaults draws k distinct-site random faults whose joint
// injection changes some output on the vectors.
func randomObservableFaults(c *circuit.Circuit, k int, pi [][]uint64, n int, seed int64) []fault.Fault {
	rng := rand.New(rand.NewSource(seed))
	sites := fault.Sites(c)
	goodOut := diagnose.DeviceOutputs(c, pi, n)
	for tries := 0; tries < 60; tries++ {
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
		device := fault.Inject(c, fs...)
		if !diagnose.Verify(device, goodOut, pi, n) {
			return fs
		}
	}
	return nil
}

// Table2Cell aggregates one (circuit, error count) cell of Table 2.
type Table2Cell struct {
	Errors   int
	Runs     int
	DiagTime time.Duration // avg diagnosis time per algorithm execution
	CorrTime time.Duration // avg correction time per algorithm execution
	Nodes    float64       // avg decision-tree nodes (algorithm executions)
	Total    time.Duration // avg total time to the first valid correction set
	Failed   int
}

// Table2Row is one circuit row of Table 2.
type Table2Row struct {
	Name  string
	Lines int
	Cells []Table2Cell
}

// RunTable2Row reproduces one row of Table 2: the unoptimized (redundant)
// circuit is corrupted with k observable design errors drawn from the
// Campenhout distribution and rectified in first-solution mode.
func RunTable2Row(bm gen.Benchmark, errorCounts []int, cfg Config) (Table2Row, error) {
	cfg = cfg.defaults()
	c, vecs, err := Prepare(bm, false, cfg)
	if err != nil {
		return Table2Row{}, err
	}
	specOut := diagnose.DeviceOutputs(c, vecs.PI, vecs.N)
	row := Table2Row{Name: bm.Name, Lines: c.LineCount()}
	for _, k := range errorCounts {
		cell := Table2Cell{Errors: k}
		for t := 0; t < cfg.Trials; t++ {
			seed := cfg.Seed + int64(t)*6151 + int64(k)*24593
			bad, _, err := errmodel.Inject(c, k, errmodel.InjectOptions{
				Seed:          seed,
				CheckPatterns: vecs.PI,
				N:             vecs.N,
			})
			if err != nil {
				cell.Failed++
				continue
			}
			start := time.Now()
			rep, err := diagnose.RepairContext(cfg.ctx(), bad, specOut, vecs.PI, vecs.N, diagnose.Options{
				MaxErrors: k + 1,
				MaxNodes:  cfg.MaxNodes,
				Budget:    diagnose.Budget{Time: cfg.RunBudget},
				Workers:   cfg.Workers,
			})
			elapsed := time.Since(start)
			cell.Runs++
			if err != nil {
				cell.Failed++
				continue
			}
			nodes := float64(rep.Stats.Nodes)
			cell.Nodes += nodes
			cell.DiagTime += time.Duration(float64(rep.Stats.DiagTime) / nodes)
			cell.CorrTime += time.Duration(float64(rep.Stats.CorrTime) / nodes)
			cell.Total += elapsed
		}
		if n := cell.Runs - cell.Failed; n > 0 {
			cell.Nodes /= float64(n)
			cell.DiagTime /= time.Duration(n)
			cell.CorrTime /= time.Duration(n)
			cell.Total /= time.Duration(n)
		}
		row.Cells = append(row.Cells, cell)
	}
	return row, nil
}

// FaultMaskingRate reproduces the §4.1 observation: the fraction of k-fault
// injections into a (scan-converted) circuit that are fully explained by a
// smaller tuple.
func FaultMaskingRate(bm gen.Benchmark, k int, cfg Config) (rate float64, runs int, err error) {
	cfg = cfg.defaults()
	c, vecs, err := Prepare(bm, true, cfg)
	if err != nil {
		return 0, 0, err
	}
	masked := 0
	for t := 0; t < cfg.Trials; t++ {
		seed := cfg.Seed + int64(t)*31 + 7
		fs := randomObservableFaults(c, k, vecs.PI, vecs.N, seed)
		if fs == nil {
			continue
		}
		device := fault.Inject(c, fs...)
		devOut := diagnose.DeviceOutputs(device, vecs.PI, vecs.N)
		res, derr := diagnose.DiagnoseStuckAtContext(cfg.ctx(), c, devOut, vecs.PI, vecs.N, diagnose.Options{
			MaxErrors: k,
			MaxNodes:  cfg.MaxNodes,
			Budget:    diagnose.Budget{Time: cfg.RunBudget},
			Workers:   cfg.Workers,
		})
		if derr != nil {
			return 0, 0, derr
		}
		if len(res.Tuples) == 0 {
			continue
		}
		runs++
		if len(res.Tuples[0]) < k {
			masked++
		}
	}
	if runs == 0 {
		return 0, 0, nil
	}
	return float64(masked) / float64(runs), runs, nil
}

// WriteTable1 renders rows in the layout of the paper's Table 1, including
// its bottom "Average" row.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-8s %7s", "ckt", "lines")
	for _, c := range rows[0].Cells {
		fmt.Fprintf(w, " |%3dflt: %7s %7s %9s", c.Faults, "#sites", "#tuples", "t/tuple")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %7d", r.Name, r.Lines)
		for _, c := range r.Cells {
			fmt.Fprintf(w, " |        %7.1f %7.1f %9s", c.AvgSites, c.AvgTuples, fmtDur(c.TimeTuple))
		}
		fmt.Fprintln(w)
	}
	if len(rows) < 2 {
		return
	}
	fmt.Fprintf(w, "%-8s %7s", "Average", "")
	for ci := range rows[0].Cells {
		var sites, tuples float64
		var tt time.Duration
		n := 0
		for _, r := range rows {
			if ci < len(r.Cells) {
				sites += r.Cells[ci].AvgSites
				tuples += r.Cells[ci].AvgTuples
				tt += r.Cells[ci].TimeTuple
				n++
			}
		}
		fmt.Fprintf(w, " |        %7.1f %7.1f %9s",
			sites/float64(n), tuples/float64(n), fmtDur(tt/time.Duration(n)))
	}
	fmt.Fprintln(w)
}

// WriteTable2 renders rows in the layout of the paper's Table 2, plus a
// solved-fraction column the paper does not need (it reports no failures).
func WriteTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-8s %7s", "ckt", "lines")
	for _, c := range rows[0].Cells {
		fmt.Fprintf(w, " |%derr: %9s %9s %7s %9s %6s", c.Errors, "diag", "corr", "nodes", "total", "solved")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %7d", r.Name, r.Lines)
		for _, c := range r.Cells {
			fmt.Fprintf(w, " |      %9s %9s %7.1f %9s %3d/%-3d", fmtDur(c.DiagTime), fmtDur(c.CorrTime), c.Nodes, fmtDur(c.Total), c.Runs-c.Failed, c.Runs)
		}
		fmt.Fprintln(w)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	case d < time.Second:
		return fmt.Sprintf("%.0fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
