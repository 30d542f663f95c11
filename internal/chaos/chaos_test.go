package chaos

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dedc/internal/bench"
	"dedc/internal/circuit"
	"dedc/internal/diagnose"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/sim"
	"dedc/internal/telemetry"
)

// benchSources renders a spread of generator circuits to .bench text — the
// well-formed bases the corruption operators start from.
func benchSources(t *testing.T) []string {
	t.Helper()
	var srcs []string
	for _, c := range []struct {
		name string
		src  func() string
	}{
		{"adder", func() string { s, _ := bench.WriteString(gen.RippleAdder(8)); return s }},
		{"alu", func() string { s, _ := bench.WriteString(gen.Alu(4)); return s }},
		{"random", func() string {
			s, _ := bench.WriteString(gen.Random(gen.RandomOptions{PIs: 8, Gates: 60, Seed: 7}))
			return s
		}},
		{"sequential", func() string {
			s, _ := bench.WriteString(gen.RandomSequential(gen.RandomOptions{PIs: 6, Gates: 40, Seed: 3}, 4))
			return s
		}},
	} {
		s := c.src()
		if s == "" {
			t.Fatalf("empty .bench source for %s", c.name)
		}
		srcs = append(srcs, s)
	}
	return srcs
}

// TestParserChaos feeds the .bench reader hundreds of corrupted sources and
// asserts the boundary contract: every outcome is (circuit, nil) or
// (nil, error) — never a panic, and never a circuit that fails validation.
func TestParserChaos(t *testing.T) {
	srcs := benchSources(t)
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		src := srcs[trial%len(srcs)]
		corrupted, ops := Corrupt(src, rng)
		err := Trial(func() {
			c, perr := bench.ReadString(corrupted)
			if perr != nil {
				if !strings.Contains(perr.Error(), "bench:") && !strings.Contains(perr.Error(), "circuit:") {
					t.Errorf("trial %d (%v): error lacks package prefix: %v", trial, ops, perr)
				}
				return
			}
			// Parsed circuits must be internally consistent and simulable
			// (modulo genuine state feedback, which Validate tolerates but a
			// combinational batch simulation must reject via TopoChecked).
			if verr := c.Validate(); verr != nil {
				t.Errorf("trial %d (%v): parsed circuit fails validation: %v", trial, ops, verr)
				return
			}
			if _, terr := c.TopoChecked(); terr != nil {
				return
			}
			if len(c.PIs) > 0 && len(c.PIs) <= 24 {
				pi := sim.RandomPatterns(len(c.PIs), 64, int64(trial))
				if _, serr := sim.SimulateContext(context.Background(), c, pi, 64); serr != nil {
					t.Errorf("trial %d (%v): simulation error: %v", trial, ops, serr)
				}
			}
		})
		if err != nil {
			t.Fatalf("trial %d (ops %v): %v\ninput:\n%s", trial, ops, err, clip(corrupted))
		}
	}
}

func clip(s string) string {
	if len(s) > 800 {
		return s[:800] + "\n... [clipped]"
	}
	return s
}

// makeProblem builds a small diagnosable instance deterministically from a
// seed: a random circuit with two injected stuck-at faults, shared by the
// cancellation and budget trials.
func makeProblem(t *testing.T, seed int64) (devOut, pi [][]uint64, n int, c *circuit.Circuit) {
	t.Helper()
	c = gen.Random(gen.RandomOptions{PIs: 8, Gates: 80, Seed: seed})
	n = 256
	pi = sim.RandomPatterns(len(c.PIs), n, seed+1)
	rng := rand.New(rand.NewSource(seed + 2))
	sites := fault.Sites(c)
	fs := []fault.Fault{
		{Site: sites[rng.Intn(len(sites))], Value: true},
		{Site: sites[rng.Intn(len(sites))], Value: false},
	}
	device := fault.Inject(c, fs...)
	devOut = diagnose.DeviceOutputs(device, pi, n)
	return devOut, pi, n, c
}

// TestCancellationChaos cancels diagnosis runs at randomized points — via
// already-expired contexts, microsecond deadlines and async cancels — and
// asserts every run returns a well-formed result without panicking.
func TestCancellationChaos(t *testing.T) {
	const trials = 120
	for trial := 0; trial < trials; trial++ {
		devOut, pi, n, c := makeProblem(t, int64(trial%8))
		rng := rand.New(rand.NewSource(int64(trial) * 31))
		err := Trial(func() {
			var ctx context.Context
			var cancel context.CancelFunc
			switch trial % 3 {
			case 0: // already cancelled before the search starts
				ctx, cancel = context.WithCancel(context.Background())
				cancel()
			case 1: // deadline somewhere inside the search
				ctx, cancel = context.WithTimeout(context.Background(), time.Duration(rng.Intn(2000))*time.Microsecond)
				defer cancel()
			default: // async cancellation racing the search
				ctx, cancel = context.WithCancel(context.Background())
				go func(d time.Duration) {
					time.Sleep(d)
					cancel()
				}(time.Duration(rng.Intn(1500)) * time.Microsecond)
			}
			res, derr := diagnose.DiagnoseStuckAtContext(ctx, c, devOut, pi, n,
				diagnose.Options{MaxErrors: 2})
			if derr != nil {
				t.Errorf("trial %d: unexpected input error: %v", trial, derr)
				return
			}
			if res == nil {
				t.Errorf("trial %d: nil result", trial)
				return
			}
			if res.Status < diagnose.StatusComplete || res.Status > diagnose.StatusBudgetExhausted {
				t.Errorf("trial %d: invalid status %d", trial, res.Status)
			}
			if trial%3 == 0 && res.Status != diagnose.StatusCancelled {
				t.Errorf("trial %d: pre-cancelled ctx gave status %v", trial, res.Status)
			}
			if merr := res.Stats.MonotoneSince(diagnose.Stats{}); merr != nil {
				t.Errorf("trial %d: %v", trial, merr)
			}
			// Any tuple that survived truncation must still be a real
			// explanation of the device behaviour.
			for _, tu := range res.Tuples {
				fc := fault.Inject(c, tu...)
				if !diagnose.Verify(fc, devOut, pi, n) {
					t.Errorf("trial %d: truncated run returned invalid tuple %v", trial, tu)
				}
			}
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestBudgetChaos sweeps randomized counted budgets and asserts monotone
// accounting: the run stops with BudgetExhausted only when a counter
// actually reached its limit, counters never overshoot by more than the
// documented slack, and growing one budget never shrinks the work done.
func TestBudgetChaos(t *testing.T) {
	devOut, pi, n, c := makeProblem(t, 5)
	var prev diagnose.Stats
	for _, limit := range []int64{1, 2, 4, 8, 16, 32, 64} {
		res, err := diagnose.DiagnoseStuckAtContext(context.Background(), c, devOut, pi, n,
			diagnose.Options{MaxErrors: 3, Budget: diagnose.Budget{MaxNodes: limit}})
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if res.Status == diagnose.StatusBudgetExhausted && int64(res.Stats.Nodes) < limit {
			t.Fatalf("limit %d: BudgetExhausted with only %d nodes", limit, res.Stats.Nodes)
		}
		if int64(res.Stats.Nodes) > limit+1 {
			t.Fatalf("limit %d: node budget overshot: %d", limit, res.Stats.Nodes)
		}
		// Work under a larger budget must be a superset of work under a
		// smaller one; Stats owns that invariant.
		if merr := res.Stats.MonotoneSince(prev); merr != nil {
			t.Fatalf("limit %d: %v", limit, merr)
		}
		prev = res.Stats
	}

	// Randomized multi-dimension budgets: status must be exhausted iff some
	// counter hit its limit.
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 900))
		b := diagnose.Budget{
			MaxSimulations: int64(1 + rng.Intn(400)),
			MaxNodes:       int64(1 + rng.Intn(40)),
			MaxCandidates:  int64(1 + rng.Intn(400)),
		}
		res, err := diagnose.DiagnoseStuckAtContext(context.Background(), c, devOut, pi, n,
			diagnose.Options{MaxErrors: 2, Budget: b})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		hit := res.Stats.Simulations >= b.MaxSimulations ||
			int64(res.Stats.Nodes) >= b.MaxNodes ||
			res.Stats.Candidates >= b.MaxCandidates
		if res.Status == diagnose.StatusBudgetExhausted && !hit {
			t.Fatalf("trial %d: BudgetExhausted but no counter at limit: %+v vs %+v", trial, res.Stats, b)
		}
	}
}

// TestDeterministicPartialResults asserts the Budget doc's determinism
// promise: identical inputs and counted budgets truncate at identical
// points with identical partial results.
func TestDeterministicPartialResults(t *testing.T) {
	devOut, pi, n, c := makeProblem(t, 11)
	run := func() *diagnose.StuckAtResult {
		res, err := diagnose.DiagnoseStuckAtContext(context.Background(), c, devOut, pi, n,
			diagnose.Options{MaxErrors: 3, Budget: diagnose.Budget{MaxNodes: 12, MaxCandidates: 600}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Status != b.Status {
		t.Fatalf("status differs: %v vs %v", a.Status, b.Status)
	}
	// Wall-clock timers differ between runs; compare the deterministic part.
	if !reflect.DeepEqual(a.Stats.Deterministic(), b.Stats.Deterministic()) {
		t.Fatalf("stats differ:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if !reflect.DeepEqual(a.Tuples, b.Tuples) {
		t.Fatalf("tuples differ:\n%v\n%v", a.Tuples, b.Tuples)
	}
}

// TestResumeChaos attacks the crash-recovery path: a journaled exact run is
// truncated at random byte offsets (the artefact an arbitrary-instant kill
// leaves) and bit-flipped at random positions (disk corruption). Every
// resume must either converge to the reference solution set or fail with a
// clean error — never panic, never report a divergent answer.
//
// The reference journal is byte-for-byte repeatable, so the fixed-seed
// offsets hit the same bytes in every run of the test.
func TestResumeChaos(t *testing.T) {
	devOut, pi, n, c := makeProblem(t, 17)
	opt := diagnose.Options{MaxErrors: 2, Exact: true, Seed: 17}

	ref, journal := referenceJournal(t, c, devOut, pi, n, opt)
	if _, again := referenceJournal(t, c, devOut, pi, n, opt); !bytes.Equal(journal, again) {
		t.Fatalf("reference journal is not repeatable: %d and %d bytes", len(journal), len(again))
	}
	if len(ref.Tuples) == 0 {
		t.Fatal("reference run found no tuples")
	}
	want := tupleKeys(ref)

	resume := func(trial int, corrupted []byte, wantConverge bool) {
		terr := Trial(func() {
			res, rerr := diagnose.ResumeStuckAtFromJournal(context.Background(),
				bytes.NewReader(corrupted), c, devOut, pi, n, opt)
			if rerr != nil {
				if wantConverge {
					t.Errorf("trial %d: resume from truncated journal failed: %v", trial, rerr)
				}
				return // clean rejection is an acceptable corruption outcome
			}
			if got := tupleKeys(res); !reflect.DeepEqual(got, want) {
				t.Errorf("trial %d: resumed tuples diverge\n got %v\nwant %v", trial, got, want)
			}
			if merr := res.Stats.MonotoneSince(diagnose.Stats{}); merr != nil {
				t.Errorf("trial %d: %v", trial, merr)
			}
		})
		if terr != nil {
			t.Errorf("trial %d: %v", trial, terr)
		}
	}

	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 101))
		// Truncation at any byte offset must always resume and converge.
		cut := rng.Intn(len(journal) + 1)
		resume(trial, journal[:cut], true)

		// Bit flips may corrupt a line beyond parsing (clean error) or leave
		// it valid (must still converge); both are fine, panics are not.
		flipped := append([]byte(nil), journal...)
		for k := rng.Intn(4); k >= 0; k-- {
			pos := rng.Intn(len(flipped))
			flipped[pos] ^= 1 << rng.Intn(8)
		}
		resume(trial, flipped, false)
	}
}

// measuredNS matches a journal attribute holding an engine-measured
// duration, such as a node span's diag_ns and corr_ns.
var measuredNS = regexp.MustCompile(`"([a-z_]+_ns)":[0-9]+`)

// referenceJournal runs the journaled reference diagnosis under a tracer
// clock that steps 1 ms per reading, then sets every engine-measured
// duration to 1 ms, so the journal's bytes depend on the inputs alone.
func referenceJournal(t *testing.T, c *circuit.Circuit, devOut, pi [][]uint64, n int, opt diagnose.Options) (*diagnose.StuckAtResult, []byte) {
	t.Helper()
	var buf bytes.Buffer
	var tick atomic.Int64
	j := telemetry.NewJournal(&buf)
	ctx := telemetry.WithTracer(context.Background(), telemetry.NewTracer(telemetry.Options{
		Journal: j,
		Now: func() time.Time {
			return time.Unix(0, tick.Add(1)*int64(time.Millisecond))
		},
	}))
	ref, err := diagnose.DiagnoseStuckAtContext(ctx, c, devOut, pi, n, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	return ref, measuredNS.ReplaceAll(buf.Bytes(), []byte(`"$1":1000000`))
}

// tupleKeys canonicalizes a result's tuples for set comparison.
func tupleKeys(res *diagnose.StuckAtResult) []string {
	keys := make([]string, len(res.Tuples))
	for i, tu := range res.Tuples {
		keys[i] = fmt.Sprint(tu)
	}
	sort.Strings(keys)
	return keys
}
