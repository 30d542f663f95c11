package diagnose

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dedc/internal/errmodel"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/telemetry"
	"dedc/internal/tpg"
)

// workerCounts is the cross-worker determinism grid for Options.Workers,
// which shards the verification gate's re-simulation: sequential, two
// shards, and an oversubscribed count (more workers than this host is
// likely to have cores, capped by sim.SimulateParallel's per-worker word
// floor).
var workerCounts = []int{1, 2, 8}

// runAtWorkers runs one exact stuck-at search at a worker count and returns
// the deterministic view: sorted solution keys, status and counter stats.
func runAtWorkers(t *testing.T, fixtureSeed int64, workers int) ([]string, Status, Stats) {
	t.Helper()
	c := gen.Alu(4)
	vecs := tpg.BuildVectors(c, tpg.Options{Random: 256, Seed: 7, Deterministic: true})
	fs := pickDetectedFaults(c, 2, vecs.PI, vecs.N, fixtureSeed)
	if fs == nil {
		t.Fatal("no observable 2-fault set")
	}
	device := fault.Inject(c, fs...)
	devOut := DeviceOutputs(device, vecs.PI, vecs.N)
	res := RunContext(context.Background(), c, devOut, vecs.PI, vecs.N, StuckAtModel{},
		Options{MaxErrors: 2, Exact: true, Seed: 7, Workers: workers})
	return solutionKeys(res), res.Status, res.Stats.Deterministic()
}

// TestWorkersDeterministicStuckAt pins the contract of Options.Workers:
// solutions, status and every deterministic counter are bit-identical for
// any worker count.
func TestWorkersDeterministicStuckAt(t *testing.T) {
	wantKeys, wantStatus, wantStats := runAtWorkers(t, 23, 1)
	if len(wantKeys) == 0 {
		t.Fatalf("reference run found no solutions (stats %+v)", wantStats)
	}
	for _, workers := range workerCounts[1:] {
		keys, status, stats := runAtWorkers(t, 23, workers)
		if !equalStrings(keys, wantKeys) {
			t.Errorf("workers=%d: solutions = %v, want %v", workers, keys, wantKeys)
		}
		if status != wantStatus {
			t.Errorf("workers=%d: status = %v, want %v", workers, status, wantStatus)
		}
		if !reflect.DeepEqual(stats, wantStats) {
			t.Errorf("workers=%d: stats diverge\ngot:  %+v\nwant: %+v", workers, stats, wantStats)
		}
	}
}

// TestWorkersDeterministicRepair runs the DEDC flow (error-model corrections,
// verified-results gate) across worker counts on the generated example
// circuits.
func TestWorkersDeterministicRepair(t *testing.T) {
	for _, name := range []string{"alu4", "ecc8", "mult4"} {
		bm, ok := gen.ByName(name)
		if !ok {
			t.Fatalf("unknown circuit %q", name)
		}
		spec := bm.Build()
		bad, _, err := injectK(spec, 2, 11)
		if err != nil {
			t.Fatalf("%s: inject: %v", name, err)
		}
		vecs := tpg.BuildVectors(spec, tpg.Options{Random: 512, Seed: 3, Deterministic: true})
		specOut := DeviceOutputs(spec, vecs.PI, vecs.N)
		var wantKey string
		var wantStats Stats
		for i, workers := range workerCounts {
			rep, err := RepairContext(context.Background(), bad, specOut, vecs.PI, vecs.N,
				Options{MaxErrors: 3, Seed: 3, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			key := setKey(rep.Corrections)
			if i == 0 {
				wantKey, wantStats = key, rep.Stats.Deterministic()
				continue
			}
			if key != wantKey {
				t.Errorf("%s workers=%d: corrections %q, want %q", name, workers, key, wantKey)
			}
			if got := rep.Stats.Deterministic(); !reflect.DeepEqual(got, wantStats) {
				t.Errorf("%s workers=%d: stats diverge\ngot:  %+v\nwant: %+v", name, workers, got, wantStats)
			}
		}
	}
}

// TestWorkersDeterministicRandomSweep fuzzes the property over seeded random
// circuits and error multiplicities.
func TestWorkersDeterministicRandomSweep(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		spec := gen.Random(gen.RandomOptions{PIs: 7, Gates: 90, Seed: seed + 400})
		k := 1 + int(seed)%2
		bad, _, err := errmodel.Inject(spec, k, errmodel.InjectOptions{Seed: seed * 5})
		if err != nil {
			continue
		}
		vecs := tpg.BuildVectors(spec, tpg.Options{Random: 384, Seed: seed, Deterministic: true})
		specOut := DeviceOutputs(spec, vecs.PI, vecs.N)
		model := NewErrorModel(bad, 0, 1)
		var wantKeys []string
		var wantStats Stats
		var wantStatus Status
		for i, workers := range workerCounts {
			res := RunContext(context.Background(), bad, specOut, vecs.PI, vecs.N, model,
				Options{MaxErrors: k + 1, Seed: seed, Workers: workers})
			keys := solutionKeys(res)
			if i == 0 {
				wantKeys, wantStats, wantStatus = keys, res.Stats.Deterministic(), res.Status
				continue
			}
			if !equalStrings(keys, wantKeys) {
				t.Errorf("seed %d workers=%d: solutions %v, want %v", seed, workers, keys, wantKeys)
			}
			if res.Status != wantStatus {
				t.Errorf("seed %d workers=%d: status %v, want %v", seed, workers, res.Status, wantStatus)
			}
			if got := res.Stats.Deterministic(); !reflect.DeepEqual(got, wantStats) {
				t.Errorf("seed %d workers=%d: stats diverge\ngot:  %+v\nwant: %+v", seed, workers, got, wantStats)
			}
		}
	}
}

// journalAtWorkers captures a run journal with a pinned stepping clock, so
// its normalized content is a function of the search trajectory alone. The
// 1024 patterns are 16 words, wide enough for the verification gate to
// shard its re-simulation at two or more workers.
func journalAtWorkers(t *testing.T, workers int) string {
	t.Helper()
	c := gen.Alu(4)
	vecs := tpg.BuildVectors(c, tpg.Options{Random: 1024, Seed: 1, Deterministic: true})
	sites := fault.Sites(c)
	device := fault.Inject(c,
		fault.Fault{Site: sites[20], Value: true},
		fault.Fault{Site: sites[33], Value: false})
	devOut := DeviceOutputs(device, vecs.PI, vecs.N)

	var buf bytes.Buffer
	var tick atomic.Int64
	j := telemetry.NewJournal(&buf)
	tr := telemetry.NewTracer(telemetry.Options{
		Journal:  j,
		Registry: telemetry.NewRegistry(),
		Now: func() time.Time {
			return time.Unix(0, tick.Add(1)*int64(time.Millisecond))
		},
	})
	ctx := telemetry.WithTracer(context.Background(), tr)
	if _, err := DiagnoseStuckAtContext(ctx, c, devOut, vecs.PI, vecs.N, Options{MaxErrors: 2, Workers: workers}); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		ev, err := telemetry.ParseEvent(line)
		if err != nil {
			t.Fatalf("journal line fails schema validation: %v\n%s", err, line)
		}
		got.WriteString(normalize(ev))
		got.WriteByte('\n')
	}
	return got.String()
}

// TestWorkersJournalIdentical requires the whole journal — every span,
// iteration, solution and checkpoint event, in order — to be independent of
// the worker count: the gate's re-simulation shards emit no events and
// compute the same rows as the sequential simulation.
func TestWorkersJournalIdentical(t *testing.T) {
	want := journalAtWorkers(t, 1)
	for _, workers := range workerCounts[1:] {
		if got := journalAtWorkers(t, workers); got != want {
			t.Errorf("workers=%d: journal diverges from sequential\n%s", workers, diffHead(got, want))
		}
	}
}

// TestResumeWorkerCountIndependent replays one crashed run's journal at
// every worker count: a checkpoint written by a sequential run must resume
// to identical solutions at any Workers, which the checkpoint's config
// fingerprint excludes.
func TestResumeWorkerCountIndependent(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true, Seed: 7, Workers: 1}

	full, _ := journaledRun(t, c, devOut, pi, n, opt)
	if len(full.Solutions) == 0 {
		t.Fatalf("reference run found no solutions (stats %+v)", full.Stats)
	}
	truncOpt := opt
	truncOpt.Budget = Budget{MaxNodes: 4}
	if _, journal := journaledRun(t, c, devOut, pi, n, truncOpt); bytes.Contains(journal, []byte(`"event":"checkpoint"`)) {
		want := solutionKeys(full)
		for _, workers := range workerCounts {
			ropt := opt
			ropt.Workers = workers
			res, err := ResumeFromJournal(context.Background(), bytes.NewReader(journal), c, devOut, pi, n, StuckAtModel{}, ropt)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if got := solutionKeys(res); !equalStrings(got, want) {
				t.Errorf("workers=%d: resumed solutions %v, want %v", workers, got, want)
			}
		}
	} else {
		t.Fatal("truncated journal holds no checkpoint")
	}
}
