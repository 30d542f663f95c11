package diagnose

import (
	"context"
	"testing"

	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/tpg"
)

// BenchmarkExpandRootScreen is the allocation regression guard for the
// screen path: run with -benchmem to see allocs/op of one root expansion
// of an injected multi-fault alu.
func BenchmarkExpandRootScreen(b *testing.B) {
	c := gen.Alu(4)
	vecs := tpg.BuildVectors(c, tpg.Options{Random: 256, Seed: 1, Deterministic: true})
	sites := fault.Sites(c)
	device := fault.Inject(c,
		fault.Fault{Site: sites[20], Value: true},
		fault.Fault{Site: sites[33], Value: false})
	devOut := DeviceOutputs(device, vecs.PI, vecs.N)
	params := DefaultSchedule()[2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expandRoot(context.Background(), c, devOut, vecs.PI, vecs.N,
			StuckAtModel{}, Options{MaxErrors: 2, Workers: 1}, params)
	}
}

// BenchmarkExpandRootErrorModel is the design-error counterpart: the root
// expansion of an alu with two injected design errors under the exhaustive
// ErrorModel, whose Theorem-1 screen rejects most of its candidates. Run
// with -benchmem to see allocs/op.
func BenchmarkExpandRootErrorModel(b *testing.B) {
	c := gen.Alu(4)
	vecs := tpg.BuildVectors(c, tpg.Options{Random: 256, Seed: 1, Deterministic: true})
	bad, _, err := injectK(c, 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	specOut := DeviceOutputs(c, vecs.PI, vecs.N)
	model := NewErrorModel(bad, 0, 1)
	params := DefaultSchedule()[2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expandRoot(context.Background(), bad, specOut, vecs.PI, vecs.N, model,
			Options{MaxErrors: 3, Workers: 1}, params)
	}
}

// BenchmarkExactSearch is the whole-run allocation guard: the exact
// two-fault diagnosis of BenchmarkExpandRootScreen's alu, searched to
// completion over many nodes, so the per-node engine storage a run
// recycles shows in B/op and allocs/op. Run with -benchmem.
func BenchmarkExactSearch(b *testing.B) {
	c := gen.Alu(4)
	vecs := tpg.BuildVectors(c, tpg.Options{Random: 256, Seed: 1, Deterministic: true})
	sites := fault.Sites(c)
	device := fault.Inject(c,
		fault.Fault{Site: sites[20], Value: true},
		fault.Fault{Site: sites[33], Value: false})
	devOut := DeviceOutputs(device, vecs.PI, vecs.N)
	opt := Options{MaxErrors: 2, Exact: true, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		nodes += Run(c, devOut, vecs.PI, vecs.N, StuckAtModel{}, opt).Stats.Nodes
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}
