package tpg

import (
	"bufio"
	"bytes"
	"context"
	"reflect"
	"testing"

	"dedc/internal/gen"
	"dedc/internal/telemetry"
)

// TestWorkerCountParity is the fault-parallel PODEM determinism contract:
// the vector set — PI rows, counts, coverage, backtrack total — is
// bit-identical at every worker count, because per-fault searches are
// independent and outcomes fold in original fault order.
func TestWorkerCountParity(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := gen.Random(gen.RandomOptions{PIs: 10, Gates: 120, Seed: seed})
		base := Options{Random: 32, Seed: seed, Deterministic: true}
		want := BuildVectors(c, base)
		for _, w := range []int{2, 4, 7} {
			opt := base
			opt.Workers = w
			got := BuildVectors(c.Clone(), opt)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: w=%d result differs from sequential:\n got %+v\nwant %+v",
					seed, w, got, want)
			}
		}
	}
}

// TestWorkerPoolTelemetry: the parallel driver counts dispatched per-fault
// generations on tpg.pool.trials — every decided fault except those the
// redundancy proof settled, counted on tpg.proven — and folds per-worker
// backtracks into the shared tpg.backtracks counter and per-worker gate
// evaluations into tpg.evals, matching the result's own totals, which the
// atpg span's end reports too.
func TestWorkerPoolTelemetry(t *testing.T) {
	c := gen.Random(gen.RandomOptions{PIs: 10, Gates: 120, Seed: 2})
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf)
	ctx := telemetry.WithTracer(context.Background(), telemetry.NewTracer(telemetry.Options{Registry: reg, Journal: j}))
	res := BuildVectorsContext(ctx, c, Options{Random: 32, Seed: 2, Deterministic: true, Workers: 4})
	dispatched := res.Generated + res.Untestable + res.Aborted - res.Proven
	if dispatched == 0 {
		t.Skip("random pass and redundancy proof left PODEM no fault")
	}
	if got := reg.Counter("tpg.pool.trials").Value(); got != int64(dispatched) {
		t.Errorf("tpg.pool.trials = %d, want %d", got, dispatched)
	}
	if got := reg.Counter("tpg.proven").Value(); got != int64(res.Proven) {
		t.Errorf("tpg.proven = %d, result says %d", got, res.Proven)
	}
	if got := reg.Counter("tpg.backtracks").Value(); got != res.Backtracks {
		t.Errorf("tpg.backtracks = %d, result says %d", got, res.Backtracks)
	}
	if got := reg.Counter("tpg.evals").Value(); got != res.Evals || got == 0 {
		t.Errorf("tpg.evals = %d, result says %d", got, res.Evals)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	ended := false
	for sc := bufio.NewScanner(&buf); sc.Scan(); {
		ev, err := telemetry.ParseEvent(sc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if ev.Span != "atpg" || ev.Event != "span_end" {
			continue
		}
		ended = true
		if ev.Attrs["evals"] != float64(res.Evals) || ev.Attrs["backtracks"] != float64(res.Backtracks) ||
			ev.Attrs["proven"] != float64(res.Proven) {
			t.Errorf("atpg span end evals=%v backtracks=%v proven=%v, result says %d, %d and %d",
				ev.Attrs["evals"], ev.Attrs["backtracks"], ev.Attrs["proven"], res.Evals, res.Backtracks, res.Proven)
		}
	}
	if !ended {
		t.Error("no atpg span_end in the journal")
	}
}

// TestWorkerCancellation: a cancelled parallel run reports Cancelled and
// still returns the vectors produced so far, like the sequential path.
func TestWorkerCancellation(t *testing.T) {
	c := gen.Random(gen.RandomOptions{PIs: 10, Gates: 120, Seed: 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := BuildVectorsContext(ctx, c, Options{Random: 32, Seed: 3, Deterministic: true, Workers: 4})
	seq := BuildVectorsContext(ctx, c.Clone(), Options{Random: 32, Seed: 3, Deterministic: true})
	if res.Cancelled != seq.Cancelled {
		t.Errorf("parallel Cancelled=%v, sequential Cancelled=%v", res.Cancelled, seq.Cancelled)
	}
	if res.N < 32 || len(res.PI) != len(c.PIs) {
		t.Errorf("partial result malformed: N=%d rows=%d", res.N, len(res.PI))
	}
}
