package diagnose

import (
	"fmt"
	"time"
)

// String renders the stats as the one-line search summary the reports and
// logs share, in the units of the paper's tables.
func (s Stats) String() string {
	return fmt.Sprintf(
		"%d nodes, %d rounds, %d trials (%d screened by Theorem 1, %d rejected by Vcorr), %d simulations, %d candidates, thresholds %v, diagnosis %v, correction %v",
		s.Nodes, s.Rounds, s.Trials, s.Screened, s.H3Rejected, s.Simulations, s.Candidates, s.Schedule,
		s.DiagTime.Round(time.Microsecond), s.CorrTime.Round(time.Microsecond))
}

// Merge accumulates another run's stats into s and returns the sum, for
// aggregating across runs (experiment rows, chaos campaigns, telemetry
// roll-ups). Counters and phase times add; Rounds takes the maximum (it is
// per-step, not cumulative) and Schedule keeps the most recent non-zero
// thresholds.
func (s Stats) Merge(o Stats) Stats {
	s.Nodes += o.Nodes
	s.Trials += o.Trials
	s.Screened += o.Screened
	s.H3Rejected += o.H3Rejected
	s.Simulations += o.Simulations
	s.Candidates += o.Candidates
	s.Verified += o.Verified
	s.DiagTime += o.DiagTime
	s.CorrTime += o.CorrTime
	s.VerifyTime += o.VerifyTime
	if o.Rounds > s.Rounds {
		s.Rounds = o.Rounds
	}
	if o.Schedule != (Params{}) {
		s.Schedule = o.Schedule
	}
	return s
}

// MonotoneSince verifies that every deterministic accumulating counter is at
// least its value in prev — the single place the budget-accounting invariant
// ("growing a budget never shrinks the work done, counters never go
// backwards") is asserted. Wall-clock phase times and the per-step Rounds
// field are excluded: neither is cumulative across truncation points. A nil
// error means the invariant holds; the error names the first violated field.
func (s Stats) MonotoneSince(prev Stats) error {
	checks := []struct {
		name     string
		now, old int64
	}{
		{"Nodes", int64(s.Nodes), int64(prev.Nodes)},
		{"Trials", int64(s.Trials), int64(prev.Trials)},
		{"Screened", int64(s.Screened), int64(prev.Screened)},
		{"H3Rejected", int64(s.H3Rejected), int64(prev.H3Rejected)},
		{"Simulations", s.Simulations, prev.Simulations},
		{"Candidates", s.Candidates, prev.Candidates},
		{"Verified", int64(s.Verified), int64(prev.Verified)},
	}
	for _, c := range checks {
		if c.now < c.old {
			return fmt.Errorf("diagnose: Stats.%s went backwards: %d -> %d", c.name, c.old, c.now)
		}
	}
	return nil
}

// Deterministic returns a copy with the wall-clock fields zeroed, leaving
// only the counters that identical inputs and counted budgets must reproduce
// exactly — the form determinism tests compare with reflect.DeepEqual.
func (s Stats) Deterministic() Stats {
	s.DiagTime = 0
	s.CorrTime = 0
	s.VerifyTime = 0
	return s
}
