package diagnose

import (
	"bytes"
	"context"
	"testing"

	"dedc/internal/telemetry"
)

// TestOnCheckpointFiresWithoutTracer: the callback alone is enough to get
// checkpoint notifications — no journal required.
func TestOnCheckpointFiresWithoutTracer(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	var cps []Checkpoint
	opt := Options{MaxErrors: 2, Exact: true, Seed: 7, OnCheckpoint: func(cp *Checkpoint) {
		cps = append(cps, *cp)
	}}
	res := Run(c, devOut, pi, n, StuckAtModel{}, opt)
	if len(res.Solutions) == 0 {
		t.Fatalf("no solutions (stats %+v)", res.Stats)
	}
	if len(cps) == 0 {
		t.Fatal("OnCheckpoint never fired")
	}
	for i, cp := range cps {
		if cp.Round < 1 || cp.Seed != 7 || !cp.Exact || cp.MaxErrors != 2 {
			t.Fatalf("checkpoint %d carries wrong fingerprint: %+v", i, cp)
		}
	}
}

// TestOnCheckpointMatchesJournal: with both a tracer and the callback, the
// callback sees exactly the states that were journaled, in order, and is
// invoked after the journal write (the flush-on-checkpoint durability
// ordering a host recording resume points depends on).
func TestOnCheckpointMatchesJournal(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf)
	tr := telemetry.NewTracer(telemetry.Options{Journal: j})
	ctx := telemetry.WithTracer(context.Background(), tr)

	var journaledAtCall []int // journal checkpoint-event count at each callback
	opt := Options{MaxErrors: 2, Exact: true, Seed: 7, OnCheckpoint: func(cp *Checkpoint) {
		journaledAtCall = append(journaledAtCall, bytes.Count(buf.Bytes(), []byte(`"event":"checkpoint"`)))
	}}
	RunContext(ctx, c, devOut, pi, n, StuckAtModel{}, opt)
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(journaledAtCall) == 0 {
		t.Fatal("OnCheckpoint never fired")
	}
	total := bytes.Count(buf.Bytes(), []byte(`"event":"checkpoint"`))
	if len(journaledAtCall) != total {
		t.Fatalf("callback fired %d times, journal holds %d checkpoints", len(journaledAtCall), total)
	}
	for i, n := range journaledAtCall {
		if n != i+1 {
			t.Fatalf("callback %d saw %d journaled checkpoints; must run after its own journal write", i, n)
		}
	}
}
