package diagnose

import (
	"strings"
	"testing"
	"time"

	"dedc/internal/gen"
	"dedc/internal/sim"
)

func TestStatsString(t *testing.T) {
	s := Stats{
		Nodes: 7, Rounds: 3, Trials: 41, Screened: 12, H3Rejected: 5,
		Simulations: 900, Candidates: 120,
		Schedule: Params{0.5, 0.9, 0.97},
		DiagTime: 1500 * time.Microsecond, CorrTime: 2500 * time.Microsecond,
	}
	got := s.String()
	for _, want := range []string{
		"7 nodes", "3 rounds", "41 trials", "12 screened", "5 rejected by Vcorr",
		"900 simulations", "120 candidates", "{0.5 0.9 0.97}",
		"1.5ms", "2.5ms",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Stats.String() = %q, missing %q", got, want)
		}
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{Nodes: 3, Rounds: 5, Trials: 10, Screened: 2, H3Rejected: 4, Simulations: 100,
		Candidates: 20, DiagTime: time.Millisecond, Schedule: Params{1, 1, 1}}
	b := Stats{Nodes: 4, Rounds: 2, Trials: 1, Screened: 3, H3Rejected: 1, Simulations: 50,
		Candidates: 5, CorrTime: time.Second, Schedule: Params{0.3, 0.7, 0.95}}
	m := a.Merge(b)
	want := Stats{Nodes: 7, Rounds: 5, Trials: 11, Screened: 5, H3Rejected: 5, Simulations: 150,
		Candidates: 25, DiagTime: time.Millisecond, CorrTime: time.Second,
		Schedule: Params{0.3, 0.7, 0.95}}
	if m != want {
		t.Errorf("Merge = %+v, want %+v", m, want)
	}
	// Merging a zero Stats keeps the schedule thresholds.
	if m2 := m.Merge(Stats{}); m2.Schedule != m.Schedule {
		t.Errorf("Merge with zero stats dropped schedule: %+v", m2.Schedule)
	}
}

func TestStatsMonotoneSince(t *testing.T) {
	base := Stats{Nodes: 5, Trials: 9, Screened: 1, Simulations: 40, Candidates: 11}
	grown := base
	grown.Nodes++
	grown.Simulations += 100
	// Rounds and phase times may legitimately shrink between runs.
	grown.Rounds = 0
	grown.DiagTime = -time.Second
	if err := grown.MonotoneSince(base); err != nil {
		t.Errorf("MonotoneSince on grown stats: %v", err)
	}
	if err := base.MonotoneSince(base); err != nil {
		t.Errorf("MonotoneSince on equal stats: %v", err)
	}
	shrunk := base
	shrunk.Candidates--
	err := shrunk.MonotoneSince(base)
	if err == nil {
		t.Fatal("MonotoneSince missed a shrinking counter")
	}
	if !strings.Contains(err.Error(), "Candidates") {
		t.Errorf("error does not name the field: %v", err)
	}
	shrunk = base
	shrunk.H3Rejected--
	if err := shrunk.MonotoneSince(base); err == nil || !strings.Contains(err.Error(), "H3Rejected") {
		t.Errorf("MonotoneSince on shrinking H3Rejected = %v, want an error naming it", err)
	}
}

func TestStatsDeterministic(t *testing.T) {
	s := Stats{Nodes: 1, DiagTime: time.Hour, CorrTime: time.Minute, Rounds: 2}
	d := s.Deterministic()
	if d.DiagTime != 0 || d.CorrTime != 0 {
		t.Errorf("Deterministic kept wall-clock fields: %+v", d)
	}
	if d.Nodes != 1 || d.Rounds != 2 {
		t.Errorf("Deterministic disturbed counters: %+v", d)
	}
}

func TestStatsVerifyTime(t *testing.T) {
	a, b := Stats{VerifyTime: time.Millisecond}, Stats{VerifyTime: 2 * time.Millisecond}
	if got := a.Merge(b).VerifyTime; got != 3*time.Millisecond {
		t.Errorf("Merge VerifyTime = %v, want 3ms", got)
	}
	if got := a.Deterministic().VerifyTime; got != 0 {
		t.Errorf("Deterministic kept VerifyTime %v", got)
	}

	spec := gen.Alu(4)
	bad, _, err := injectK(spec, 1, 701)
	if err != nil {
		t.Fatal(err)
	}
	pi := sim.RandomPatterns(len(spec.PIs), 256, 1)
	specOut := DeviceOutputs(spec, pi, 256)
	rep, err := Repair(bad, specOut, pi, 256, Options{MaxErrors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Verified == 0 || rep.Stats.VerifyTime <= 0 {
		t.Errorf("verified %d solution(s) in %v, want at least one in nonzero time",
			rep.Stats.Verified, rep.Stats.VerifyTime)
	}
	rep, err = Repair(bad, specOut, pi, 256, Options{MaxErrors: 2, NoVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.VerifyTime != 0 {
		t.Errorf("NoVerify run spent %v in the verify gate", rep.Stats.VerifyTime)
	}
}
