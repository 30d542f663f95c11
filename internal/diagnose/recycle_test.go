package diagnose

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dedc/internal/circuit"
	"dedc/internal/gen"
	"dedc/internal/telemetry"
	"dedc/internal/tpg"
)

// recyclePoison is the garbage the recycling tests write over every engine
// a run releases (poisonReleased).
const recyclePoison = 0xa5a55a5ac3c33c3c

// withPoison runs f with released engines poisoned.
func withPoison(f func()) {
	poisonReleased = recyclePoison
	defer func() { poisonReleased = 0 }()
	f()
}

// recycleCase is one search of the recycling tests, resumed from cp when
// it is non-nil.
type recycleCase struct {
	name    string
	netlist *circuit.Circuit
	specOut [][]uint64
	pi      [][]uint64
	n       int
	model   Model
	opt     Options
	cp      *Checkpoint
}

// recycleOutcome is what a recycling-test run produced: the result, the
// engines the run allocated rather than rebuilt, the raw journal and its
// deterministic rendering (see normalize).
type recycleOutcome struct {
	res     *Result
	built   int
	journal []byte
	events  string
}

// recycleRun runs rc with a journal whose clock steps one millisecond per
// reading, so everything in it but the *_ns phase times is reproducible.
func recycleRun(t *testing.T, rc recycleCase) recycleOutcome {
	t.Helper()
	var buf bytes.Buffer
	var tick atomic.Int64
	j := telemetry.NewJournal(&buf)
	tr := telemetry.NewTracer(telemetry.Options{
		Journal:  j,
		Registry: telemetry.NewRegistry(),
		Now:      func() time.Time { return time.Unix(0, tick.Add(1)*int64(time.Millisecond)) },
	})
	r := newRunState(telemetry.WithTracer(context.Background(), tr), rc.netlist, rc.specOut, rc.pi, rc.n, rc.model, rc.opt)
	res, err := r.run(rc.cp)
	if err != nil {
		t.Fatalf("%s: %v", rc.name, err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	var events strings.Builder
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		ev, err := telemetry.ParseEvent(line)
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		events.WriteString(normalize(ev))
		events.WriteByte('\n')
	}
	return recycleOutcome{res: res, built: r.built, journal: buf.Bytes(), events: events.String()}
}

// recycleCases are exact stuck-at searches and first-solution repairs on
// alu4 under every policy, an unsolvable repair, first-solution searches of
// random circuits under
// the design-error, stuck-at and bridging models, and a resume of a
// truncated exact run and of a truncated repair.
func recycleCases(t *testing.T) []recycleCase {
	t.Helper()
	c, devOut, pi, n := resumeFixture(t)
	alu := gen.Alu(4)
	vecs := tpg.BuildVectors(alu, tpg.Options{Random: 256, Seed: 1, Deterministic: true})
	bad, _, err := injectK(alu, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	aluSpec := DeviceOutputs(alu, vecs.PI, vecs.N)
	var cases []recycleCase
	for _, pol := range []Policy{PolicyRounds, PolicyDFS, PolicyBFS} {
		cases = append(cases,
			recycleCase{name: fmt.Sprintf("stuckat/exact/policy%d", pol), netlist: c, specOut: devOut, pi: pi, n: n,
				model: StuckAtModel{}, opt: Options{MaxErrors: 2, Exact: true, Seed: 7, Policy: pol}},
			recycleCase{name: fmt.Sprintf("repair/first/policy%d", pol), netlist: bad, specOut: aluSpec, pi: vecs.PI, n: vecs.N,
				model: NewErrorModel(bad, 0, 1), opt: Options{MaxErrors: 3, MaxNodes: 60, Policy: pol}})
	}
	// Five errors against MaxErrors 2: no step solves it, so each runs to
	// its node cap and revisits lazily ranked nodes.
	worse, _, err := injectK(alu, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, recycleCase{name: "repair/unsolved", netlist: worse, specOut: aluSpec, pi: vecs.PI, n: vecs.N,
		model: NewErrorModel(worse, 0, 1), opt: Options{MaxErrors: 2, MaxNodes: 30}})
	for _, fc := range modelCases(t, 2, 3, 200) {
		cases = append(cases, recycleCase{name: fc.name, netlist: fc.netlist, specOut: fc.specOut, pi: fc.pi, n: fc.n,
			model: fc.model, opt: Options{MaxErrors: 3, MaxNodes: 40, Workers: 1}})
	}
	for _, base := range []recycleCase{cases[0], cases[1]} {
		trunc := base
		trunc.opt.Budget = Budget{MaxNodes: 5}
		cp, err := LatestCheckpoint(bytes.NewReader(recycleRun(t, trunc).journal))
		if err != nil || cp == nil {
			t.Fatalf("%s: truncated run left no checkpoint (err %v)", base.name, err)
		}
		base.name += "/resumed"
		base.cp = cp
		cases = append(cases, base)
	}
	return cases
}

// TestRecycledEnginesPoisonSafe runs every recycling case twice, once with
// each released engine's value and scratch rows overwritten by garbage,
// and requires the same solutions, status, Stats and journal. A read of an
// engine after its release would see the garbage; the rebuilt engines must
// also be indistinguishable from fresh ones. The root audit is compared the
// same way.
func TestRecycledEnginesPoisonSafe(t *testing.T) {
	for _, rc := range recycleCases(t) {
		want := recycleRun(t, rc)
		var got recycleOutcome
		withPoison(func() { got = recycleRun(t, rc) })
		if g, w := solutionKeysInOrder(got.res), solutionKeysInOrder(want.res); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: poisoned solutions %v, want %v", rc.name, g, w)
		}
		if got.res.Status != want.res.Status {
			t.Fatalf("%s: poisoned status %v, want %v", rc.name, got.res.Status, want.res.Status)
		}
		if g, w := got.res.Stats.Deterministic(), want.res.Stats.Deterministic(); g != w {
			t.Fatalf("%s: poisoned stats %+v, want %+v", rc.name, g, w)
		}
		if got.events != want.events {
			t.Fatalf("%s: poisoned journal diverges\n%s", rc.name, diffHead(got.events, want.events))
		}
	}
	for _, rc := range recycleCases(t)[:2] {
		p := DefaultSchedule()[2]
		want := AuditRoot(rc.netlist, rc.specOut, rc.pi, rc.n, rc.model, rc.opt, p)
		var got []RankedCorrection
		withPoison(func() { got = AuditRoot(rc.netlist, rc.specOut, rc.pi, rc.n, rc.model, rc.opt, p) })
		if len(want) == 0 {
			t.Fatalf("%s: the root audit ranks nothing", rc.name)
		}
		sameRanking(t, rc.name+"/audit", got, want)
	}
}

// TestRunBuildsFewEngines: a search of 30 or more nodes allocates at most
// a few engines, rebuilding every later node's engines in released ones. A
// release point that goes missing leaks an engine per node and fails here.
func TestRunBuildsFewEngines(t *testing.T) {
	const maxBuilt = 4
	for _, rc := range recycleCases(t) {
		out := recycleRun(t, rc)
		if out.res.Stats.Nodes < 30 {
			continue // too small to tell
		}
		if out.built > maxBuilt {
			t.Errorf("%s: %d engines built for %d nodes, want at most %d", rc.name, out.built, out.res.Stats.Nodes, maxBuilt)
		}
		t.Logf("%s: %d engines for %d nodes", rc.name, out.built, out.res.Stats.Nodes)
	}
}
