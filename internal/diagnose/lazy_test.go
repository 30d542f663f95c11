package diagnose

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"dedc/internal/telemetry"
)

// rankedRun runs fc's first-solution search with a journal attached and
// returns the result plus the sequence of expansions, one "node[i] via"
// line per node in expansion order. eager ranks every node's survivors at
// expansion, as exact runs do: the reference the lazy ranking must match.
func rankedRun(t testing.TB, fc failSpaceCase, opt Options, eager bool) (*Result, []string) {
	t.Helper()
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf)
	ctx := telemetry.WithTracer(context.Background(), telemetry.NewTracer(telemetry.Options{Journal: j}))
	r := newRunState(ctx, fc.netlist, fc.specOut, fc.pi, fc.n, fc.model, opt)
	if eager {
		r.lazy = false
	}
	res, err := r.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	var expanded []string
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		ev, err := telemetry.ParseEvent(line)
		if err != nil {
			t.Fatal(err)
		}
		if via, ok := ev.Attrs["via"]; ok && ev.Event == "span_end" {
			expanded = append(expanded, fmt.Sprintf("%s %v", ev.Span, via))
		}
	}
	return res, expanded
}

// checkLazyParity runs fc under opt with lazy and with eager ranking and
// requires the same solutions, expansions, status and Stats, except that
// the lazy run may run fewer full-width screens.
func checkLazyParity(t testing.TB, label string, fc failSpaceCase, opt Options) (lazyTrials, eagerTrials int) {
	t.Helper()
	got, gotExp := rankedRun(t, fc, opt, false)
	want, wantExp := rankedRun(t, fc, opt, true)
	if g, w := solutionKeysInOrder(got), solutionKeysInOrder(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: solutions %v, eager ranking %v", label, g, w)
	}
	if !reflect.DeepEqual(gotExp, wantExp) {
		t.Fatalf("%s: expansions diverge from eager ranking\nlazy:  %v\neager: %v", label, gotExp, wantExp)
	}
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, eager ranking %v", label, got.Status, want.Status)
	}
	g, w := got.Stats, want.Stats
	if g.Trials > w.Trials || g.H3Rejected > w.H3Rejected {
		t.Fatalf("%s: trials/h3-rejected %d/%d exceed eager ranking's %d/%d", label, g.Trials, g.H3Rejected, w.Trials, w.H3Rejected)
	}
	g.Trials, g.H3Rejected, w.Trials, w.H3Rejected = 0, 0, 0, 0
	if g.Deterministic() != w.Deterministic() {
		t.Fatalf("%s: stats %+v, eager ranking %+v", label, g.Deterministic(), w.Deterministic())
	}
	return got.Stats.Trials, want.Stats.Trials
}

func solutionKeysInOrder(res *Result) []string {
	keys := make([]string, len(res.Solutions))
	for i, s := range res.Solutions {
		keys[i] = setKey(s.Corrections)
	}
	return keys
}

// parityOptions are the first-solution configurations the lazy ranking is
// checked under: every traversal policy, unlimited and at several
// simulation budgets (cut points inside the correction screen), and a
// tight per-node cap. MaxNodes keeps unsolvable cases short.
func parityOptions() []Options {
	var opts []Options
	for _, pol := range []Policy{PolicyRounds, PolicyDFS, PolicyBFS} {
		base := Options{MaxErrors: 3, MaxNodes: 24, Policy: pol, Workers: 1}
		for _, sims := range []int64{0, 40, 150, 600} {
			o := base
			o.Budget.MaxSimulations = sims
			opts = append(opts, o)
		}
		capped := base
		capped.MaxCorrectionsPerNode = 2
		opts = append(opts, capped)
	}
	return opts
}

// TestLazyRankingParity: on random circuits under the design-error,
// stuck-at and bridging models, first-solution search with lazy ranking
// expands the same corrections in the same order as eager ranking, finds
// the same solutions and does the same counted work, with no more
// full-width screens.
func TestLazyRankingParity(t *testing.T) {
	lazy, eager := 0, 0
	for _, fc := range failSpaceCases(t) {
		for i, opt := range parityOptions() {
			l, e := checkLazyParity(t, fmt.Sprintf("%s/opt%d", fc.name, i), fc, opt)
			lazy += l
			eager += e
		}
	}
	if lazy >= eager {
		t.Errorf("lazy ranking ran %d full-width screens, eager %d; want fewer", lazy, eager)
	}
	t.Logf("full-width screens: lazy %d, eager %d", lazy, eager)
}

// FuzzLazyRanking is TestLazyRankingParity on fuzzed circuit and error
// seeds.
func FuzzLazyRanking(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(0))
	f.Add(int64(7), int64(3), uint8(5))
	f.Fuzz(func(t *testing.T, cseed, eseed int64, pick uint8) {
		n := []int{100, 200}[pick&1]
		opts := parityOptions()
		opt := opts[int(pick>>1)%len(opts)]
		for _, fc := range modelCases(t, cseed, eseed, n) {
			checkLazyParity(t, fc.name, fc, opt)
		}
	})
}
