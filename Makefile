# Build, test and robustness gates for the dedc library and tools.
#
#   make ci              — everything a pull request must pass
#   make check           — ci plus the journal, telemetry-overhead and
#                          chaos gates
#   make fuzz            — short fuzzing pass over the .bench parser,
#                          PODEM's and the redundancy proof's verdicts
#                          (checked by equivalence proofs and fault sim), the
#                          word-parallel path trace, the lazy correction
#                          ranking (checked against eager ranking), the
#                          observability-row scores (checked against
#                          propagation), the exhaustive-simulation
#                          equivalence verdict (checked against SAT) and
#                          the word-op Theorem-1 screen of design-error
#                          candidates (checked against their NewValues rows)
#   make chaos           — fault-injection trials under the race detector
#   make chaos-resume    — SIGKILL/resume convergence trials (race build)
#   make chaos-store     — SIGKILL dedcd mid-workload; the durable store must
#                          lose nothing and finish every job after restart,
#                          and each restart must be listening within 4 s
#   make stream-chaos    — SIGKILL dedcd mid-SSE-stream; resuming clients must
#                          converge on the exact persisted lifecycle
#   make bench-telemetry — disabled-telemetry overhead gate (≤2%)
#   make journal-check   — end-to-end run journal validation
#   make bench-e2e       — one untraced end-to-end run (perfbench/run.sh) of
#                          every BENCHMARK.json workload; prints one JSON
#                          result line per workload. perfbench is the only
#                          performance harness; compare a change with its
#                          parent by alternating run.sh in both trees

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test race fuzz chaos chaos-resume chaos-store \
	stream-chaos ci check bench-telemetry journal-check bench-e2e clean

all: build

# perfbench/ is its own module, so ./... at the root does not reach it; build
# and test it too, so a library change that breaks the benchmark harness
# fails here rather than only in a benchmark run. Its build output is
# discarded: perfbench/run.sh builds the harness it runs under .bench_build/.
build:
	$(GO) build ./...
	cd perfbench && $(GO) build -o /dev/null ./...

# gofmt -l lists every file whose formatting differs; any output fails.
# perfbench/ is its own module, so ./... at the root does not reach it; vet
# and race run there too.
vet:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; fi
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...
	cd perfbench && $(GO) test ./...

race:
	$(GO) test -race ./...
	cd perfbench && $(GO) test -race ./...

# Native fuzzing of the .bench parser, seeded from the checked-in corpus in
# internal/bench/testdata/fuzz plus the f.Add seeds, of PODEM's verdicts and
# the redundancy proof's on random circuits against SAT and fault-simulation
# oracles, of the word-parallel path trace against the per-vector reference,
# of first-solution search with lazy correction ranking against eager
# ranking, of observability-row correction scores against propagating
# each candidate row, of equiv's exhaustive-simulation verdict against
# the SAT verdict on random circuits up to one input past its bound, and of
# errmodel.Screen's complement counts against each candidate's NewValues row
# on random circuits, widths and masks.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzRead -fuzztime $(FUZZTIME) ./internal/bench
	$(GO) test -run '^$$' -fuzz FuzzDirectiveEdgeCases -fuzztime $(FUZZTIME) ./internal/bench
	$(GO) test -run '^$$' -fuzz '^FuzzGenerate$$' -fuzztime $(FUZZTIME) ./internal/tpg
	$(GO) test -run '^$$' -fuzz '^FuzzTrace$$' -fuzztime $(FUZZTIME) ./internal/pathtrace
	$(GO) test -run '^$$' -fuzz '^FuzzLazyRanking$$' -fuzztime $(FUZZTIME) ./internal/diagnose
	$(GO) test -run '^$$' -fuzz '^FuzzObservability$$' -fuzztime $(FUZZTIME) ./internal/diagnose
	$(GO) test -run '^$$' -fuzz '^FuzzExhaustiveVerdict$$' -fuzztime $(FUZZTIME) ./internal/equiv
	$(GO) test -run '^$$' -fuzz '^FuzzScreen$$' -fuzztime $(FUZZTIME) ./internal/errmodel

# The chaos harness: corrupted-input and randomized-cancellation trials must
# hold "no panic, well-formed partial results" under the race detector.
chaos:
	$(GO) test -race -count 1 ./internal/chaos

# Crash-only gate: SIGKILL journaled dedc runs at random points (the killed
# binary itself built with -race) and require every -resume to converge to
# the uninterrupted run's exact solution set.
chaos-resume:
	CHAOS_RESUME_TRIALS=50 CHAOS_RESUME_RACE=1 \
		$(GO) test -race -count 1 -run TestChaosResume -timeout 30m ./cmd/dedc

# Durable-store gate: SIGKILL dedcd (race build) at random points mid-workload,
# restart over the same store directory, and require every accepted job to
# reach a terminal state with solutions identical to an uninterrupted run, and
# every restart to be listening within 4 s. A requeued job must resume from the
# newest earlier attempt journal that holds a checkpoint, skipping newer ones
# that hold none.
# Also scales up the store-corruption trials (damaged log/snapshot must recover
# cleanly or fail typed — never panic or fabricate state).
chaos-store:
	CHAOS_STORE_TRIALS=50 CHAOS_STORE_RACE=1 \
		$(GO) test -race -count 1 -run 'TestChaosStoreKill|TestRestartResumesFromCheckpoint|TestResumeSkipsJournalsWithoutCheckpoint' \
		-timeout 30m ./cmd/dedcd
	CHAOS_STORE_CORRUPT_TRIALS=1000 \
		$(GO) test -race -count 1 -run TestStoreCorruptionTrials -timeout 30m ./internal/chaos

# Streaming-status gate: SSE clients tail a job while dedcd is SIGKILLed and
# restarted on the same address/store; every client's Last-Event-ID resume
# must converge on the persisted timeline exactly once, no holes, no dupes.
stream-chaos:
	CHAOS_STREAM_TRIALS=25 \
		$(GO) test -race -count 1 -run TestChaosStream -timeout 30m ./cmd/dedcd

ci: vet build race fuzz

# Measures Engine.Trial three ways (uninstrumented reference, telemetry
# disabled, telemetry enabled) and fails when the disabled path — the default
# everyone runs — costs more than 2% over the reference. Writes the
# machine-readable report to BENCH_telemetry.json.
bench-telemetry:
	TELEMETRY_BENCH=1 TELEMETRY_BENCH_OUT=$(CURDIR)/BENCH_telemetry.json \
		$(GO) test -run TestTelemetryOverhead -count 1 -v ./internal/sim

# End-to-end journal validation: diagnose an injected double fault with
# -journal on, then verify every event against the schema and that the spans
# balance and the chosen corrections are reconstructable.
journal-check:
	rm -rf .journal-check && mkdir .journal-check
	$(GO) run ./cmd/genckt -ckt alu4 -o .journal-check/ckt.bench
	$(GO) run ./cmd/inject -in .journal-check/ckt.bench -faults 2 -seed 7 \
		-o .journal-check/bad.bench
	$(GO) run ./cmd/dedc -impl .journal-check/ckt.bench \
		-device .journal-check/bad.bench -stuckat -random 512 \
		-journal .journal-check/run.jsonl > /dev/null
	$(GO) run ./cmd/journalcheck .journal-check/run.jsonl
	$(GO) run ./cmd/journalcheck -resume-point .journal-check/run.jsonl
	rm -rf .journal-check

# End-to-end benchmark: perfbench/run.sh builds perfbench and dedcd under
# .bench_build/ and runs each BENCHMARK.json workload once with -trace 0,
# for the run_seconds BENCHMARK.json declares (its workloads array holds one
# workload object per line). The workload name goes to stderr, the run's
# JSON result line to stdout.
bench-e2e:
	@secs=$$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json); \
	for w in $$(sed -n '/"workloads"/,/\]/s/.*{"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json); do \
		echo "bench-e2e: $$w" >&2; \
		out=$$(bash perfbench/run.sh --workload $$w --seconds $$secs --trace 0) || exit 1; \
		printf '%s\n' "$$out" | tail -n 1; \
	done

check: ci journal-check bench-telemetry chaos-resume chaos-store stream-chaos

clean:
	$(GO) clean ./...
	rm -rf .journal-check
