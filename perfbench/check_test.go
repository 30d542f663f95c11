package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dedc/internal/bench"
	"dedc/internal/diagnose"
	"dedc/internal/errmodel"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/sim"
)

func smallSpec(t *testing.T) *specRow {
	t.Helper()
	row, err := specRowOf("alu4", gen.Alu(4), 256)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

// observableFault returns a single stuck-at fault that changes an output.
func observableFault(t *testing.T, row *specRow) fault.Fault {
	t.Helper()
	fs, err := observableFaults(row, fault.Sites(row.spec), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return fs[0]
}

func TestEvaluateMatchesSimulator(t *testing.T) {
	c := gen.Random(gen.RandomOptions{PIs: 12, Gates: 200, Seed: 5})
	pi := sim.RandomPatterns(len(c.PIs), 300, 9)
	got, err := evaluate(c, patternsFor(c, pi, 300))
	if err != nil {
		t.Fatal(err)
	}
	want := diagnose.DeviceOutputs(c, pi, 300)
	if err := sameOutputs(got, want, 300); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRepairRejectsCorruptedAnswer(t *testing.T) {
	row := smallSpec(t)
	v := patternsFor(row.spec, row.v.PI, row.v.N)
	text, err := bench.WriteString(row.spec)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := checkRepairAnswer(repairAnswer{corrections: []string{"x"}, repaired: text}, row, 1); !ok || err != nil {
		t.Fatalf("a correct repair was rejected: %v", err)
	}
	bad, _, err := errmodel.Inject(row.spec, 1, errmodel.InjectOptions{Seed: 4, CheckPatterns: row.v.PI, N: row.v.N})
	if err != nil {
		t.Fatal(err)
	}
	badText, err := bench.WriteString(bad)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := checkRepairAnswer(repairAnswer{corrections: []string{"x"}, repaired: badText}, row, 1); ok || err == nil {
		t.Fatal("a corrupted repair was accepted")
	}
	if err := checkRepair(bad, row.spec, v, 2); err == nil {
		t.Fatal("checkRepair accepted a netlist that differs from the spec")
	}
	if _, err := checkRepairAnswer(repairAnswer{repaired: text}, row, 1); err == nil {
		t.Fatal("a solved answer without corrections was accepted")
	}
}

func TestCheckTuplesRejectsCorruptedAnswer(t *testing.T) {
	row := smallSpec(t)
	v := patternsFor(row.spec, row.v.PI, row.v.N)
	f := observableFault(t, row)
	device := fault.Inject(row.spec, f)
	if err := checkTuples(row.spec, device, []fault.Tuple{{f}}, 1, v, 1); err != nil {
		t.Fatalf("the injected fault was rejected: %v", err)
	}
	flipped := f
	flipped.Value = !f.Value
	other := observableFault(t, &specRow{name: "other", spec: row.spec, v: row.v, specOut: diagnose.DeviceOutputs(device, row.v.PI, row.v.N)})
	cases := map[string]struct {
		tuples []fault.Tuple
		k      int
	}{
		"wrong value":  {[]fault.Tuple{{flipped}}, 1},
		"no tuples":    {nil, 1},
		"too large":    {[]fault.Tuple{{f, other}}, 1},
		"mixed sizes":  {[]fault.Tuple{{f}, {f, other}}, 2},
		"repeated":     {[]fault.Tuple{{f}, {f}}, 1},
		"extra failed": {[]fault.Tuple{{f}, {flipped}}, 1},
	}
	for name, tc := range cases {
		if err := checkTuples(row.spec, device, tc.tuples, tc.k, v, 1); err == nil {
			t.Errorf("%s: corrupted tuples accepted", name)
		}
	}
}

func TestCheckProvenUsesExhaustiveSimulation(t *testing.T) {
	row := smallSpec(t)
	if err := checkProven(row.spec.Clone(), row.spec); err != nil {
		t.Fatalf("the spec itself was rejected: %v", err)
	}
	bad, _, err := errmodel.Inject(row.spec, 1, errmodel.InjectOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkProven(bad, row.spec); err == nil {
		t.Fatal("a non-equivalent repair was accepted")
	}
}

func TestParseTuplesRoundTrip(t *testing.T) {
	c := gen.ArrayMultiplier(3)
	sites := fault.Sites(c)
	want := fault.Tuple{{Site: sites[3], Value: true}, {Site: sites[len(sites)-1], Value: false}}
	var names []string
	for _, f := range want {
		v := "0"
		if f.Value {
			v = "1"
		}
		names = append(names, f.Site.Name(c)+"/"+v)
	}
	got, err := parseTuples([][]string{names}, siteNames(c))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Key() != want.Key() {
		t.Fatalf("round trip gave %v, want %v", got[0], want)
	}
	if _, err := parseTuples([][]string{{"nosuchline/1"}}, siteNames(c)); err == nil {
		t.Fatal("an unknown site was accepted")
	}
}

// TestLayerSplitAddsUp checks the traced run's identity: the disjoint layer
// times plus trace.unattributed_ms equal trace.op_ms.
func TestLayerSplitAddsUp(t *testing.T) {
	ops := []*opRec{
		{Wall: 10 * time.Millisecond, lay: layers{parse: time.Millisecond, diag: 2 * time.Millisecond, corr: 3 * time.Millisecond, other: time.Millisecond}},
		{Wall: 30 * time.Millisecond, lay: layers{submit: time.Millisecond, queue: 4 * time.Millisecond, attempt: 20 * time.Millisecond,
			vectors: 12 * time.Millisecond, wait: 2 * time.Millisecond}},
	}
	m := layerMetrics(ops, newTracer(false))
	sum := m["trace.unattributed_ms"].Value
	for _, name := range layerTimes {
		sum += m[name].Value
	}
	if math.Abs(sum-m["trace.op_ms"].Value) > 1e-9 {
		t.Fatalf("layers add up to %v ms, op_ms is %v", sum, m["trace.op_ms"].Value)
	}
	if m["trace.op_ms"].Value != 20 {
		t.Fatalf("op_ms = %v, want 20", m["trace.op_ms"].Value)
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that an untraced run prints
// exactly the end-to-end metrics BENCHMARK.json names, and a traced run
// exactly its per-layer metrics, each with the unit it gives.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	ops := []*opRec{{Wall: time.Millisecond, CPU: time.Millisecond, Solved: true}}
	for _, c := range []struct {
		name string
		want []struct{ Name, Unit string }
		got  map[string]metric
	}{
		{"end_to_end", spec.EndToEnd, endToEndMetrics(ops, window{}, 1, 1)},
		{"per_layer", spec.PerLayer, layerMetrics(ops, newTracer(false))},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: the run prints %d metrics, BENCHMARK.json names %d", c.name, len(c.got), len(c.want))
		}
		for _, m := range c.want {
			if g, ok := c.got[m.Name]; !ok {
				t.Errorf("%s: %s is not printed", c.name, m.Name)
			} else if g.Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", c.name, m.Name, g.Unit, m.Unit)
			}
		}
	}
}
