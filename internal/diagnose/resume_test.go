package diagnose

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/sim"
	"dedc/internal/telemetry"
	"dedc/internal/tpg"
)

// journaledRun runs an exact stuck-at search with a journal attached and
// returns the result plus the journal bytes — the crash artefact the resume
// tests feed back in.
func journaledRun(t *testing.T, c *circuit.Circuit, devOut, pi [][]uint64, n int, opt Options) (*Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf)
	tr := telemetry.NewTracer(telemetry.Options{Journal: j})
	ctx := telemetry.WithTracer(context.Background(), tr)
	res := RunContext(ctx, c, devOut, pi, n, StuckAtModel{}, opt)
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

func solutionKeys(res *Result) []string {
	keys := make([]string, len(res.Solutions))
	for i, s := range res.Solutions {
		keys[i] = setKey(s.Corrections)
	}
	sort.Strings(keys)
	return keys
}

// resumeFixture is a 2-fault alu4 diagnosis: big enough that a tight node
// budget truncates it mid-tree with checkpoints in the journal.
func resumeFixture(t *testing.T) (*circuit.Circuit, [][]uint64, [][]uint64, int) {
	t.Helper()
	c := gen.Alu(4)
	vecs := tpg.BuildVectors(c, tpg.Options{Random: 256, Seed: 7, Deterministic: true})
	fs := pickDetectedFaults(c, 2, vecs.PI, vecs.N, 23)
	if fs == nil {
		t.Fatal("no observable 2-fault set")
	}
	device := fault.Inject(c, fs...)
	return c, DeviceOutputs(device, vecs.PI, vecs.N), vecs.PI, vecs.N
}

func TestResumeFromJournalConverges(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true, Seed: 7}

	full, _ := journaledRun(t, c, devOut, pi, n, opt)
	if len(full.Solutions) == 0 {
		t.Fatalf("reference run found no solutions (stats %+v)", full.Stats)
	}

	// Truncate a second run mid-search with a node budget, as a stand-in for
	// a crash (the journal is identical up to the cut either way).
	truncOpt := opt
	truncOpt.Budget = Budget{MaxNodes: 4}
	trunc, journal := journaledRun(t, c, devOut, pi, n, truncOpt)
	if trunc.Status != StatusBudgetExhausted {
		t.Fatalf("truncated run status = %v, want BudgetExhausted", trunc.Status)
	}
	if !bytes.Contains(journal, []byte(`"event":"checkpoint"`)) {
		t.Fatal("truncated journal holds no checkpoint")
	}

	res, err := ResumeFromJournal(context.Background(), bytes.NewReader(journal), c, devOut, pi, n, StuckAtModel{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := solutionKeys(res), solutionKeys(full); !equalStrings(got, want) {
		t.Errorf("resumed solutions = %v, want %v", got, want)
	}
	if err := res.Stats.MonotoneSince(trunc.Stats.Deterministic()); err != nil {
		t.Errorf("resumed stats not monotone over the crashed run's: %v", err)
	}
	if res.Stats.Verified < len(res.Solutions) {
		t.Errorf("Verified = %d < %d solutions; resumed solutions were not re-proven", res.Stats.Verified, len(res.Solutions))
	}
}

// TestLatestCheckpointSkipsMangledFieldNames: a checkpoint whose field name
// was corrupted on disk is rejected, not decoded with that field absent (an
// empty frontier would end the resumed search at once), and the resume
// point falls back to the checkpoint before it.
func TestLatestCheckpointSkipsMangledFieldNames(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	_, journal := journaledRun(t, c, devOut, pi, n, Options{MaxErrors: 2, Exact: true, Seed: 7, Budget: Budget{MaxNodes: 6}})
	want, err := LatestCheckpoint(bytes.NewReader(journal))
	if err != nil || want == nil {
		t.Fatalf("intact journal: checkpoint %v, err %v", want, err)
	}
	lines := bytes.Split(bytes.TrimSuffix(journal, []byte("\n")), []byte("\n"))
	var cps []int
	for i, l := range lines {
		if bytes.Contains(l, []byte(`"event":"checkpoint"`)) {
			cps = append(cps, i)
		}
	}
	if len(cps) < 2 {
		t.Fatalf("journal holds %d checkpoints, want at least 2", len(cps))
	}
	for _, field := range []string{`"frontier"`, `"solutions"`, `"Nodes"`} {
		mangled := make([][]byte, len(lines))
		copy(mangled, lines)
		last := cps[len(cps)-1]
		mangled[last] = bytes.Replace(lines[last], []byte(field), []byte(strings.Replace(field, `"`, `"x`, 1)), 1)
		if bytes.Equal(mangled[last], lines[last]) {
			t.Fatalf("last checkpoint has no %s field", field)
		}
		got, err := LatestCheckpoint(bytes.NewReader(bytes.Join(mangled, []byte("\n"))))
		if err != nil {
			t.Fatal(err)
		}
		if got == nil || got.Round >= want.Round && got.Step == want.Step {
			t.Errorf("%s mangled: resume point %+v, want the checkpoint before round %d", field, got, want.Round)
		}
	}
}

func TestResumeFromTruncatedJournalTail(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true, Seed: 7}
	full, journal := journaledRun(t, c, devOut, pi, n, opt)

	// Chop the journal mid-line, the artefact a SIGKILL leaves behind.
	cut := journal[:len(journal)*2/3]
	if cut[len(cut)-1] == '\n' {
		cut = cut[:len(cut)-1]
	}
	res, err := ResumeFromJournal(context.Background(), bytes.NewReader(cut), c, devOut, pi, n, StuckAtModel{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := solutionKeys(res), solutionKeys(full); !equalStrings(got, want) {
		t.Errorf("resumed solutions = %v, want %v", got, want)
	}
}

func TestResumeEmptyJournalRunsFresh(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true}
	full, _ := journaledRun(t, c, devOut, pi, n, opt)
	res, err := ResumeFromJournal(context.Background(), strings.NewReader(""), c, devOut, pi, n, StuckAtModel{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := solutionKeys(res), solutionKeys(full); !equalStrings(got, want) {
		t.Errorf("fresh-fallback solutions = %v, want %v", got, want)
	}
}

func TestResumeRejectsMismatchedConfig(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true, Seed: 7, Budget: Budget{MaxNodes: 4}}
	if _, journal := journaledRun(t, c, devOut, pi, n, opt); true {
		cases := []struct {
			name   string
			mutate func(*Options)
		}{
			{"seed", func(o *Options) { o.Seed = 8 }},
			{"max_errors", func(o *Options) { o.MaxErrors = 3 }},
			{"exact", func(o *Options) { o.Exact = false }},
			{"policy", func(o *Options) { o.Policy = PolicyDFS }},
		}
		for _, tc := range cases {
			bad := Options{MaxErrors: 2, Exact: true, Seed: 7}
			tc.mutate(&bad)
			if _, err := ResumeFromJournal(context.Background(), bytes.NewReader(journal), c, devOut, pi, n, StuckAtModel{}, bad); err == nil {
				t.Errorf("%s mismatch: resume succeeded, want error", tc.name)
			}
		}
	}
}

func TestResumeRejectsForeignInputs(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true, Seed: 7, Budget: Budget{MaxNodes: 6}}
	_, journal := journaledRun(t, c, devOut, pi, n, opt)
	cp, err := LatestCheckpoint(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint in journal")
	}
	// Same configuration, different circuit: the replay must fail loudly
	// instead of continuing against the wrong tree.
	other := gen.Alu(2)
	otherOut := DeviceOutputs(other, pi[:len(other.PIs)], n)
	fresh := Options{MaxErrors: 2, Exact: true, Seed: 7}
	if _, err := ResumeFromCheckpoint(context.Background(), other, otherOut, pi[:len(other.PIs)], n, StuckAtModel{}, fresh, cp); err == nil {
		t.Error("resume against a different circuit succeeded, want replay error")
	}
}

func TestVerifiedGateCountsAndToggle(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true}
	res := Run(c, devOut, pi, n, StuckAtModel{}, opt)
	if len(res.Solutions) == 0 {
		t.Fatal("no solutions")
	}
	if res.Stats.Verified < len(res.Solutions) {
		t.Errorf("Verified = %d, want >= %d (gate is on by default)", res.Stats.Verified, len(res.Solutions))
	}
	opt.NoVerify = true
	off := Run(c, devOut, pi, n, StuckAtModel{}, opt)
	if off.Stats.Verified != 0 {
		t.Errorf("Verified = %d with NoVerify, want 0", off.Stats.Verified)
	}
	if got, want := solutionKeys(off), solutionKeys(res); !equalStrings(got, want) {
		t.Errorf("NoVerify changed the solution set: %v vs %v", got, want)
	}
}

func TestVerifySolutionRejectsUnproven(t *testing.T) {
	c := gen.Alu(4)
	n := 128
	pi := sim.RandomPatterns(len(c.PIs), n, 3)
	good := DeviceOutputs(c, pi, n)
	fs := pickDetectedFaults(c, 1, pi, n, 5)
	if fs == nil {
		t.Fatal("no observable fault")
	}
	bad := DeviceOutputs(fault.Inject(c, fs...), pi, n)

	r := &runState{base: c, pi: pi, specOut: good, n: n, w: sim.Words(n), res: &Result{}}
	if !r.verifySolution(nil) {
		t.Error("gate rejected a circuit that matches its reference")
	}
	r.specOut = bad
	if r.verifySolution(nil) {
		t.Error("gate passed a circuit that does not match its reference")
	}
}

// TestResumeLazyFrontierPastResolvedPrefix resumes a first-solution repair
// from a checkpoint in which a frontier node's Next lies past the ranked
// prefix its replay resolves: the resumed run must rank that node further
// on demand, expand the same corrections after the checkpoint as the
// uninterrupted run and reach its solution.
func TestResumeLazyFrontierPastResolvedPrefix(t *testing.T) {
	spec := gen.Alu(4)
	vecs := tpg.BuildVectors(spec, tpg.Options{Random: 512, Seed: 14})
	specOut := DeviceOutputs(spec, vecs.PI, vecs.N)
	bad, _, err := injectK(spec, 3, 409)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{MaxErrors: 3, Seed: 7, Workers: 1}
	repair := func(opt Options, resume []byte) (*RepairResult, []byte) {
		t.Helper()
		var buf bytes.Buffer
		j := telemetry.NewJournal(&buf)
		ctx := telemetry.WithTracer(context.Background(), telemetry.NewTracer(telemetry.Options{Journal: j}))
		var rep *RepairResult
		var err error
		if resume == nil {
			rep, err = RepairContext(ctx, bad, specOut, vecs.PI, vecs.N, opt)
		} else {
			rep, err = ResumeRepairFromJournal(ctx, bytes.NewReader(resume), bad, specOut, vecs.PI, vecs.N, opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		return rep, buf.Bytes()
	}
	full, fullJournal := repair(opt, nil)
	if !full.Solved() {
		t.Fatalf("reference repair: status %v", full.Status)
	}

	for nodes := int64(2); nodes <= 60; nodes++ {
		truncOpt := opt
		truncOpt.Budget = Budget{MaxNodes: nodes}
		trunc, journal := repair(truncOpt, nil)
		if trunc.Solved() {
			break
		}
		cp, err := LatestCheckpoint(bytes.NewReader(journal))
		if err != nil {
			t.Fatal(err)
		}
		if cp == nil || !pastResolvedPrefix(bad, specOut, vecs.PI, vecs.N, opt, cp) {
			continue
		}
		res, resJournal := repair(opt, journal)
		if !res.Solved() || setKey(res.Corrections) != setKey(full.Corrections) {
			t.Fatalf("resumed from step %d round %d (budget %d nodes): %v (status %v), uninterrupted run %v",
				cp.Step, cp.Round, nodes, res.Corrections, res.Status, full.Corrections)
		}
		got, want := expansionsAfter(t, resJournal, cp), expansionsAfter(t, fullJournal, cp)
		if len(want) == 0 || !equalStrings(got, want) {
			t.Fatalf("resumed from step %d round %d: expansions after the checkpoint %v, uninterrupted run %v",
				cp.Step, cp.Round, got, want)
		}
		return
	}
	t.Fatal("no truncated run left a checkpoint with a frontier Next past its node's resolved prefix")
}

// expansionsAfter lists the correction each node expansion applied, in
// order, from the journal's first checkpoint at cp's step and round on.
func expansionsAfter(t *testing.T, journal []byte, cp *Checkpoint) []string {
	t.Helper()
	var vias []string
	at := false
	for _, line := range bytes.Split(journal, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		ev, err := telemetry.ParseEvent(line)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Event == telemetry.EventCheckpoint && !at {
			c, err := DecodeCheckpoint(ev)
			if err != nil {
				t.Fatal(err)
			}
			at = c.Step == cp.Step && c.Round == cp.Round
		}
		if via, ok := ev.Attrs["via"]; ok && at && ev.Event == "span_end" {
			vias = append(vias, fmt.Sprint(via))
		}
	}
	return vias
}

// pastResolvedPrefix replays cp's frontier paths as a resume does and
// reports whether some frontier node's Next lies past the ranked prefix
// the replay resolved.
func pastResolvedPrefix(c *circuit.Circuit, specOut, pi [][]uint64, n int, opt Options, cp *Checkpoint) bool {
	r := newRunState(context.Background(), c, specOut, pi, n, NewErrorModel(c, 0, 1), opt)
	r.params = r.opt.Schedule[cp.Step]
	memo := map[string]*node{}
	var nodes []*node
	for _, fe := range cp.Frontier {
		nd, _, err := r.replayPath(fe.Path, memo)
		if err != nil {
			return false
		}
		nodes = append(nodes, nd)
	}
	for i, nd := range nodes {
		if nd.rank != nil && cp.Frontier[i].Next > len(nd.cands) {
			return true
		}
	}
	return false
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
