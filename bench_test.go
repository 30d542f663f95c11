package dedc

// Benchmark harness: one benchmark per table cell of the paper's evaluation
// plus the ablation benches DESIGN.md calls out. Absolute times differ from
// the paper's 2002 SUN Ultra 5; the shapes (scaling with fault/error count,
// node counts, screen effectiveness) are the reproduction target. Run with:
//
//	go test -bench=. -benchmem
//
// Full-suite table generation (all circuits, 10 trials) lives in cmd/tables;
// the gated tests TestGenerateTable1/2 print reduced versions here.
import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"dedc/internal/diagnose"
	"dedc/internal/equiv"
	"dedc/internal/errmodel"
	"dedc/internal/experiment"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/opt"
	"dedc/internal/pathtrace"
	"dedc/internal/sim"
	"dedc/internal/tpg"
)

// benchCase holds a prepared diagnosis workload shared across b.N runs.
type benchCase struct {
	ckt    *Circuit
	vecs   *tpg.Result
	refOut [][]uint64
	k      int
}

// prepareStuckAt injects k observable faults into the optimized benchmark.
func prepareStuckAt(b *testing.B, name string, k int) benchCase {
	b.Helper()
	bm, ok := gen.ByName(name)
	if !ok {
		b.Fatalf("unknown circuit %s", name)
	}
	c, vecs, err := experiment.Prepare(bm, true, experiment.Config{Vectors: 2048, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(k) * 13))
	sites := fault.Sites(c)
	goodOut := diagnose.DeviceOutputs(c, vecs.PI, vecs.N)
	for tries := 0; ; tries++ {
		if tries > 50 {
			b.Fatal("no observable fault set")
		}
		var fs []fault.Fault
		seen := map[fault.Site]bool{}
		for len(fs) < k {
			s := sites[rng.Intn(len(sites))]
			if seen[s] {
				continue
			}
			seen[s] = true
			fs = append(fs, fault.Fault{Site: s, Value: rng.Intn(2) == 1})
		}
		device := fault.Inject(c, fs...)
		devOut := diagnose.DeviceOutputs(device, vecs.PI, vecs.N)
		if !same(devOut, goodOut) {
			return benchCase{ckt: c, vecs: vecs, refOut: devOut, k: k}
		}
	}
}

// prepareDEDC injects k observable design errors into the unoptimized
// benchmark and returns the corrupted circuit plus the spec responses.
func prepareDEDC(b *testing.B, name string, k int) (bad *Circuit, bc benchCase) {
	b.Helper()
	bm, ok := gen.ByName(name)
	if !ok {
		b.Fatalf("unknown circuit %s", name)
	}
	c, vecs, err := experiment.Prepare(bm, false, experiment.Config{Vectors: 2048, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	specOut := diagnose.DeviceOutputs(c, vecs.PI, vecs.N)
	bad, _, err = errmodel.Inject(c, k, errmodel.InjectOptions{
		Seed: int64(k) * 19, CheckPatterns: vecs.PI, N: vecs.N,
	})
	if err != nil {
		b.Fatal(err)
	}
	return bad, benchCase{ckt: c, vecs: vecs, refOut: specOut, k: k}
}

func same(a, b [][]uint64) bool {
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// table1Circuits is the bench subset of Table 1's rows (the full set runs
// via cmd/tables; these keep `go test -bench` under control).
var table1Circuits = []string{"c432*", "c880*", "c1355*", "c6288*"}

// BenchmarkTable1 regenerates Table 1 cells: exact all-tuples stuck-at
// diagnosis with 1..4 injected faults per circuit.
func BenchmarkTable1(b *testing.B) {
	for _, name := range table1Circuits {
		for k := 1; k <= 4; k++ {
			b.Run(fmt.Sprintf("%s/%dfault", name, k), func(b *testing.B) {
				bc := prepareStuckAt(b, name, k)
				var tuples, nodes int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := diagnose.DiagnoseStuckAt(bc.ckt, bc.refOut, bc.vecs.PI, bc.vecs.N,
						diagnose.Options{MaxErrors: k})
					tuples = len(res.Tuples)
					nodes = res.Stats.Nodes
				}
				b.ReportMetric(float64(tuples), "tuples")
				b.ReportMetric(float64(nodes), "nodes")
			})
		}
	}
}

// table2Circuits is the bench subset of Table 2's rows.
var table2Circuits = []string{"c432*", "c880*", "c1355*", "c6288*"}

// BenchmarkTable2 regenerates Table 2 cells: first-solution DEDC with 3 and
// 4 injected design errors per circuit.
func BenchmarkTable2(b *testing.B) {
	for _, name := range table2Circuits {
		for _, k := range []int{3, 4} {
			b.Run(fmt.Sprintf("%s/%derror", name, k), func(b *testing.B) {
				bad, bc := prepareDEDC(b, name, k)
				var nodes int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err := diagnose.Repair(bad, bc.refOut, bc.vecs.PI, bc.vecs.N,
						diagnose.Options{MaxErrors: k + 1})
					if err != nil {
						b.Fatalf("repair failed: %v", err)
					}
					nodes = rep.Stats.Nodes
				}
				b.ReportMetric(float64(nodes), "nodes")
			})
		}
	}
}

// BenchmarkScanTable1 covers the sequential rows of Table 1 through the
// full-scan view (2 faults as the representative cell).
func BenchmarkScanTable1(b *testing.B) {
	for _, name := range []string{"s1196*", "s1423*"} {
		b.Run(name, func(b *testing.B) {
			bc := prepareStuckAt(b, name, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				diagnose.DiagnoseStuckAt(bc.ckt, bc.refOut, bc.vecs.PI, bc.vecs.N,
					diagnose.Options{MaxErrors: 2})
			}
		})
	}
}

// BenchmarkTraversalPolicy is the Fig. 2 ablation: the paper's round-based
// BFS/DFS trade-off against the pure policies it rejects.
func BenchmarkTraversalPolicy(b *testing.B) {
	bad, bc := prepareDEDC(b, "c880*", 3)
	for _, pc := range []struct {
		name string
		pol  diagnose.Policy
	}{{"rounds", diagnose.PolicyRounds}, {"dfs", diagnose.PolicyDFS}, {"bfs", diagnose.PolicyBFS}} {
		b.Run(pc.name, func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				rep, err := diagnose.Repair(bad, bc.refOut, bc.vecs.PI, bc.vecs.N,
					diagnose.Options{MaxErrors: 4, Policy: pc.pol})
				if err != nil {
					b.Skipf("policy %s failed: %v", pc.name, err)
				}
				nodes = rep.Stats.Nodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkH2Schedule is the Theorem-1 screen ablation: how many full trial
// propagations the cheap local screen saves at each threshold.
func BenchmarkH2Schedule(b *testing.B) {
	bad, bc := prepareDEDC(b, "c880*", 2)
	model := diagnose.NewErrorModel(bad, 0, 1)
	for _, h2 := range []float64{0.0, 0.3, 0.5, 0.7, 1.0} {
		b.Run(fmt.Sprintf("h2=%.1f", h2), func(b *testing.B) {
			var trials int
			for i := 0; i < b.N; i++ {
				cands := diagnose.AuditRoot(bad, bc.refOut, bc.vecs.PI, bc.vecs.N, model,
					diagnose.Options{MaxCorrectionsPerNode: 1 << 20},
					diagnose.Params{H1: 0.3, H2: h2, H3: 0.85})
				trials = len(cands)
			}
			b.ReportMetric(float64(trials), "cands")
		})
	}
}

// BenchmarkPathTraceKeep ablates the 5-20% path-trace keep fraction.
func BenchmarkPathTraceKeep(b *testing.B) {
	bad, bc := prepareDEDC(b, "c880*", 2)
	for _, keep := range []float64{0.05, 0.10, 0.20} {
		b.Run(fmt.Sprintf("keep=%.0f%%", keep*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := diagnose.Repair(bad, bc.refOut, bc.vecs.PI, bc.vecs.N,
					diagnose.Options{MaxErrors: 3, PathTraceKeep: keep})
				if err != nil {
					b.Skipf("keep=%v failed: %v", keep, err)
				}
				_ = rep
			}
		})
	}
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := diagnose.Repair(bad, bc.refOut, bc.vecs.PI, bc.vecs.N,
				diagnose.Options{MaxErrors: 3, DisablePathTrace: true})
			if err != nil {
				b.Skipf("disabled failed: %v", err)
			}
			_ = rep
		}
	})
}

// BenchmarkH3Allowance ablates the Vcorr screen allowance on the NAND-XOR
// structure the paper singles out (the NAND-expanded ECC): strict 0.95
// versus the 0.80-0.85 the paper recommends for such circuits.
func BenchmarkH3Allowance(b *testing.B) {
	bad, bc := prepareDEDC(b, "c1355*", 2)
	for _, h3 := range []float64{0.95, 0.85, 0.80} {
		b.Run(fmt.Sprintf("h3=%.2f", h3), func(b *testing.B) {
			sched := []diagnose.Params{{H1: 0.3, H2: 0.5, H3: h3}, {H1: 0.1, H2: 0.3, H3: h3}}
			var nodes int
			for i := 0; i < b.N; i++ {
				rep, err := diagnose.Repair(bad, bc.refOut, bc.vecs.PI, bc.vecs.N,
					diagnose.Options{MaxErrors: 3, Schedule: sched})
				if err != nil {
					b.Skipf("h3=%v failed: %v", h3, err)
				}
				nodes = rep.Stats.Nodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkSubstrates measures the supporting machinery the diagnosis inner
// loop leans on.
func BenchmarkSubstrates(b *testing.B) {
	bm, _ := gen.ByName("c6288*")
	c := bm.Build()
	n := 2048
	pi := sim.RandomPatterns(len(c.PIs), n, 1)
	c.Topo()
	b.Run("simulate/c6288", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.Simulate(c, pi, n)
		}
	})
	b.Run("engine-trial/c6288", func(b *testing.B) {
		e := sim.NewEngine(c, pi, n)
		forced := make([]uint64, e.W)
		rng := rand.New(rand.NewSource(2))
		for i := range forced {
			forced[i] = rng.Uint64()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Trial(Line(i%c.NumLines()), forced)
		}
	})
	b.Run("pathtrace/c6288", func(b *testing.B) {
		sites := fault.Sites(c)
		device := fault.Inject(c, fault.Fault{Site: sites[100], Value: true})
		devOut := diagnose.DeviceOutputs(device, pi, n)
		val := sim.Simulate(c, pi, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pathtrace.Trace(c, val, devOut, n)
		}
	})
	b.Run("faultsim/c880", func(b *testing.B) {
		bm2, _ := gen.ByName("c880*")
		c2 := bm2.Build()
		pi2 := sim.RandomPatterns(len(c2.PIs), n, 3)
		reps, _ := fault.Collapse(c2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fault.Detected(c2, reps, pi2, n)
		}
	})
	b.Run("podem/c880", func(b *testing.B) {
		bm2, _ := gen.ByName("c880*")
		c2 := bm2.Build()
		reps, _ := fault.Collapse(c2)
		p := tpg.NewPodem(c2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Generate(reps[i%len(reps)])
		}
	})
}

// BenchmarkEquivalence measures the formal checker on proof (UNSAT) and
// refutation (SAT) workloads. alu12 has 27 inputs, past the exhaustive
// simulation bound, so both go to SAT.
func BenchmarkEquivalence(b *testing.B) {
	b.Run("prove/alu12-vs-optimized", func(b *testing.B) {
		c := gen.Alu(12)
		oc, err := opt.Optimize(c)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := equiv.Check(c, oc, equiv.Options{})
			if err != nil || !res.Equivalent {
				b.Fatal("proof failed")
			}
		}
	})
	b.Run("refute/alu12-one-error", func(b *testing.B) {
		c := gen.Alu(12)
		bad, _, err := errmodel.Inject(c, 1, errmodel.InjectOptions{Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := equiv.Check(c, bad, equiv.Options{})
			if err != nil || res.Equivalent {
				b.Fatal("refutation failed")
			}
		}
	})
}

// BenchmarkRepairProven measures the CEGAR loop (repair + certification
// + counterexample folding) from a weak initial vector set.
func BenchmarkRepairProven(b *testing.B) {
	spec := gen.Alu(6)
	bad, _, err := errmodel.Inject(spec, 1, errmodel.InjectOptions{Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	pi := sim.RandomPatterns(len(spec.PIs), 32, 4)
	var iters int
	for i := 0; i < b.N; i++ {
		res, err := diagnose.RepairProven(bad, spec, pi, 32, diagnose.Options{MaxErrors: 2}, 0, 0)
		if err != nil || !res.Proven {
			b.Fatal("CEGAR failed")
		}
		iters = res.Iterations
	}
	b.ReportMetric(float64(iters), "iterations")
}

// TestGenerateTable1 prints a reduced Table 1 (set DEDC_FULL=1 for the full
// suite at 10 trials, as used for EXPERIMENTS.md).
func TestGenerateTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("table generation in -short mode")
	}
	cfg := experiment.Config{Trials: 3, Vectors: 1024, Seed: 1}
	names := []string{"c432*", "c880*"}
	counts := []int{1, 2}
	if os.Getenv("DEDC_FULL") != "" {
		cfg.Trials = 10
		cfg.Vectors = 2048
		names = nil
		for _, bm := range gen.Suite() {
			names = append(names, bm.Name)
		}
		counts = []int{1, 2, 3, 4}
	}
	var rows []experiment.Table1Row
	for _, name := range names {
		bm, _ := gen.ByName(name)
		row, err := experiment.RunTable1Row(bm, counts, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows = append(rows, row)
		for _, cell := range row.Cells {
			if cell.Runs > 0 && cell.Failed == cell.Runs {
				t.Errorf("%s with %d faults: every run failed", name, cell.Faults)
			}
		}
	}
	var sb osWriter
	experiment.WriteTable1(&sb, rows)
	t.Logf("Table 1 (reduced):\n%s", sb.s)
}

// TestGenerateTable2 prints a reduced Table 2.
func TestGenerateTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("table generation in -short mode")
	}
	cfg := experiment.Config{Trials: 3, Vectors: 1024, Seed: 1}
	names := []string{"c432*", "c880*"}
	counts := []int{3}
	if os.Getenv("DEDC_FULL") != "" {
		cfg.Trials = 10
		cfg.Vectors = 2048
		names = nil
		for _, bm := range gen.Suite() {
			names = append(names, bm.Name)
		}
		counts = []int{3, 4}
	}
	var rows []experiment.Table2Row
	for _, name := range names {
		bm, _ := gen.ByName(name)
		row, err := experiment.RunTable2Row(bm, counts, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows = append(rows, row)
		for _, cell := range row.Cells {
			if cell.Runs > 0 && cell.Failed == cell.Runs {
				t.Errorf("%s with %d errors: every run failed", name, cell.Errors)
			}
		}
	}
	var sb osWriter
	experiment.WriteTable2(&sb, rows)
	t.Logf("Table 2 (reduced):\n%s", sb.s)
}

// TestFaultMaskingObservation reproduces the §4.1 masking check on a scan
// circuit.
func TestFaultMaskingObservation(t *testing.T) {
	if testing.Short() {
		t.Skip("masking study in -short mode")
	}
	bm, _ := gen.ByName("s1196*")
	rate, runs, err := experiment.FaultMaskingRate(bm, 4, experiment.Config{Trials: 5, Vectors: 1024, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if runs == 0 {
		t.Skip("no explainable runs")
	}
	t.Logf("fault masking at 4 faults on %s: %.0f%% of %d runs (paper: >30%% on ISCAS'89)", bm.Name, 100*rate, runs)
}

type osWriter struct{ s string }

func (w *osWriter) Write(p []byte) (int, error) {
	w.s += string(p)
	return len(p), nil
}
