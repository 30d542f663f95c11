package main

import (
	"context"
	"reflect"
	"testing"

	"dedc/internal/bench"
	"dedc/internal/cache"
	"dedc/internal/diagnose"
	"dedc/internal/errmodel"
	"dedc/internal/gen"
)

// TestRunDiagnosisCachedVsFresh is the service-level determinism contract of
// -cache-bytes: the same job run with no cache, with a cold cache, and off a
// warm cache must produce identical results — same status, corrections,
// repaired netlist — while the warm run is served from memory.
func TestRunDiagnosisCachedVsFresh(t *testing.T) {
	spec := gen.Alu(2)
	impl, _, err := errmodel.Inject(spec, 1, errmodel.InjectOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	implText, err := bench.WriteString(impl)
	if err != nil {
		t.Fatal(err)
	}
	specText, err := bench.WriteString(spec)
	if err != nil {
		t.Fatal(err)
	}
	req := jobRequest{Impl: implText, Spec: specText, Random: 64, Seed: 1, MaxErrors: 2}

	strip := func(r *jobResult) *jobResult {
		c := *r
		c.Stats = diagnose.Stats{} // wall-clock phase timers differ run to run
		return &c
	}
	fresh, err := runDiagnosis(context.Background(), req, runEnv{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := cache.NewPipeline(1 << 20)
	cold, err := runDiagnosis(context.Background(), req, runEnv{Cache: p, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Snapshot(); st.Hits != 0 || st.Misses == 0 {
		t.Fatalf("cold run traffic: %+v", st)
	}
	warm, err := runDiagnosis(context.Background(), req, runEnv{Cache: p, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Snapshot()
	if st.Hits < 3 { // impl parse, spec parse, vector set
		t.Errorf("warm run barely hit the cache: %+v", st)
	}
	for name, got := range map[string]*jobResult{"cold-cache": cold, "warm-cache": warm} {
		if !reflect.DeepEqual(strip(got), strip(fresh)) {
			t.Errorf("%s result differs from uncached run:\n got %+v\nwant %+v",
				name, strip(got), strip(fresh))
		}
	}
}
