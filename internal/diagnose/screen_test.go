package diagnose

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dedc/internal/gen"
	"dedc/internal/tpg"
)

// TestScreenPathIdentity: an *ErrorModel is screened by errmodel.Screen,
// which counts wire candidates with word ops and builds only survivors;
// any other Model is enumerated and each candidate's row evaluated. The
// same error model wrapped so that it is no longer an *ErrorModel takes the
// second path, and every run must come out the same on both: solutions in
// order, status, Stats and the normalized journal. The runs cover
// first-solution repairs under every policy, an exact run, cuts by the
// candidate and simulation budgets, and a resumed truncated repair.
func TestScreenPathIdentity(t *testing.T) {
	alu := gen.Alu(4)
	vecs := tpg.BuildVectors(alu, tpg.Options{Random: 256, Seed: 1, Deterministic: true})
	spec := DeviceOutputs(alu, vecs.PI, vecs.N)
	bad, _, err := injectK(alu, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	one, _, err := injectK(alu, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	repair := recycleCase{netlist: bad, specOut: spec, pi: vecs.PI, n: vecs.N, opt: Options{MaxErrors: 3, MaxNodes: 60}}
	var cases []recycleCase
	for _, pol := range []Policy{PolicyRounds, PolicyDFS, PolicyBFS} {
		rc := repair
		rc.name = fmt.Sprintf("first/policy%d", pol)
		rc.opt.Policy = pol
		cases = append(cases, rc)
	}
	exact := recycleCase{name: "exact", netlist: one, specOut: spec, pi: vecs.PI, n: vecs.N,
		opt: Options{MaxErrors: 2, Exact: true, MaxNodes: 40}}
	cases = append(cases, exact)
	cut := map[string]Budget{
		"cut/candidates":  {MaxCandidates: 2345},
		"cut/simulations": {MaxSimulations: 77},
		"cut/nodes":       {MaxNodes: 5},
	}
	for _, name := range []string{"cut/candidates", "cut/simulations", "cut/nodes"} {
		rc := repair
		rc.name = name
		rc.opt.Budget = cut[name]
		cases = append(cases, rc)
	}
	// Resume the node-cut repair from its journal's last checkpoint.
	trunc := cases[len(cases)-1]
	trunc.model = NewErrorModel(trunc.netlist, 0, 1)
	cp, err := LatestCheckpoint(bytes.NewReader(recycleRun(t, trunc).journal))
	if err != nil || cp == nil {
		t.Fatalf("truncated repair left no checkpoint (err %v)", err)
	}
	resumed := repair
	resumed.name, resumed.cp = "resumed", cp
	cases = append(cases, resumed)

	for _, rc := range cases {
		em := NewErrorModel(rc.netlist, 0, 1)
		fast, slow := rc, rc
		fast.model, slow.model = em, struct{ Model }{em}
		got, want := recycleRun(t, fast), recycleRun(t, slow)
		if rc.opt.Budget.MaxCandidates+rc.opt.Budget.MaxSimulations > 0 && want.res.Status != StatusBudgetExhausted {
			t.Fatalf("%s: status %v, want the budget to cut the run", rc.name, want.res.Status)
		}
		if want.res.Stats.Candidates == 0 || want.res.Stats.Screened == 0 {
			t.Fatalf("%s: nothing screened (stats %+v)", rc.name, want.res.Stats)
		}
		if g, w := solutionKeysInOrder(got.res), solutionKeysInOrder(want.res); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: solutions %v, want %v", rc.name, g, w)
		}
		if got.res.Status != want.res.Status {
			t.Fatalf("%s: status %v, want %v", rc.name, got.res.Status, want.res.Status)
		}
		if g, w := got.res.Stats.Deterministic(), want.res.Stats.Deterministic(); g != w {
			t.Fatalf("%s: stats %+v, want %+v", rc.name, g, w)
		}
		if got.events != want.events {
			t.Fatalf("%s: journal diverges\n%s", rc.name, diffHead(got.events, want.events))
		}
		t.Logf("%s: %v, %d solutions, %s", rc.name, want.res.Status, len(want.res.Solutions), want.res.Stats)
	}
}
