package tpg

import (
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/gen"
)

// repairShape returns the four fixed netlists in the shape of the service
// workload's repair jobs: 16 PIs, 200 gates.
func repairShape() []*circuit.Circuit {
	var cs []*circuit.Circuit
	for s := int64(1); s <= 4; s++ {
		cs = append(cs, gen.Random(gen.RandomOptions{PIs: 16, Gates: 200, Seed: s}))
	}
	return cs
}

var benchResult *Result

// BenchmarkBuildVectorsDeterministic times BuildVectors with the redundancy
// proof and the PODEM pass on the repair shape with 1024 random patterns; one
// op builds the vector sets of all four netlists.
func BenchmarkBuildVectorsDeterministic(b *testing.B) {
	cs := repairShape()
	b.ReportAllocs()
	b.ResetTimer()
	var backtracks, evals, proven int64
	for i := 0; i < b.N; i++ {
		for _, c := range cs {
			benchResult = BuildVectors(c, Options{Random: 1024, Seed: 1, Deterministic: true})
			backtracks += benchResult.Backtracks
			evals += benchResult.Evals
			proven += int64(benchResult.Proven)
		}
	}
	b.ReportMetric(float64(backtracks)/float64(b.N), "backtracks/op")
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	b.ReportMetric(float64(proven)/float64(b.N), "proven/op")
}

// TestGenerateAllocFree: once a generator has warmed its scratch, Generate
// allocates only the assignment it returns on TestFound.
func TestGenerateAllocFree(t *testing.T) {
	c := gen.Random(gen.RandomOptions{PIs: 16, Gates: 200, Seed: 1})
	p := NewPodem(c)
	faults := fault.AllFaults(c)
	for _, f := range faults {
		p.Generate(f)
	}
	seen := map[PodemResult]bool{}
	for i := 0; i < len(faults); i += 7 {
		f := faults[i]
		_, res := p.Generate(f)
		want := 0.0
		if res == TestFound {
			want = 1
		}
		seen[res] = true
		if got := testing.AllocsPerRun(5, func() { p.Generate(f) }); got != want {
			t.Fatalf("Generate(%v) = %v: %.1f allocs per run, want %.0f", f, res, got, want)
		}
	}
	if !seen[TestFound] || !seen[Untestable] {
		t.Fatalf("want both verdicts among the sampled faults, saw %v", seen)
	}
}
