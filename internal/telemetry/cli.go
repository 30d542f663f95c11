package telemetry

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"time"
)

// CLI bundles the observability flags shared by the command-line tools:
// journal output, profiling hooks, and structured-logging controls. Register
// it on a FlagSet, then Build once flags are parsed.
type CLI struct {
	Journal    string
	CPUProfile string
	MemProfile string
	TracePath  string
	DebugAddr  string
	Verbose    bool
	LogFormat  string
}

// DefaultWorkers is the default worker count of the verification gate's
// sharded re-simulation: one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// WorkersFlag installs the shared -workers flag on fs and returns the bound
// value: diagnose.Options.Workers, the number of goroutines the
// verification gate's re-simulation shards its pattern words across. The
// default is GOMAXPROCS; 1 simulates sequentially. Results are
// bit-identical for every value. Commands whose -workers name is already
// taken (dedcd's job workers) register their own flag around
// DefaultWorkers instead.
func WorkersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", DefaultWorkers(),
		"goroutines the verification gate's re-simulation shards pattern words across (1 = sequential; results are identical for any value)")
}

// Register installs the flags on fs.
func (c *CLI) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Journal, "journal", "", "write a JSONL run journal to this file")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile to this file")
	fs.StringVar(&c.TracePath, "trace", "", "write a runtime execution trace to this file")
	fs.BoolVar(&c.Verbose, "v", false, "verbose (debug-level) logging")
	fs.StringVar(&c.LogFormat, "log-format", "text", "log output format: text or json")
}

// Runtime is the activated observability state of one CLI run. Tracer is nil
// when no flag asked for tracing — the engine then runs on the zero-cost
// disabled path. Close must run before process exit (it flushes the journal
// and writes the heap profile), so commands route exits through a run()
// function instead of calling os.Exit directly.
type Runtime struct {
	Tracer *Tracer
	Logger *slog.Logger
	// Debug is the live debug/metrics HTTP server (-debug-addr), nil when
	// not requested. Close shuts it down gracefully before flushing the
	// journal, so a SIGINT or -timeout exit through run() tears down both.
	Debug *DebugServer

	journal      *Journal
	stopProfiles func() error
}

// Build validates the flag values and activates logging, the journal, and
// the profilers. Log lines go to logw (commands pass os.Stderr).
func (c *CLI) Build(logw io.Writer) (*Runtime, error) {
	rt := &Runtime{}
	level := slog.LevelInfo
	if c.Verbose {
		level = slog.LevelDebug
	}
	hopt := &slog.HandlerOptions{Level: level}
	switch c.LogFormat {
	case "", "text":
		rt.Logger = slog.New(slog.NewTextHandler(logw, hopt))
	case "json":
		rt.Logger = slog.New(slog.NewJSONHandler(logw, hopt))
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", c.LogFormat)
	}
	profiling := c.CPUProfile != "" || c.MemProfile != "" || c.TracePath != ""
	// -debug-addr enables the tracer even without a journal: the span-kind
	// duration histograms it feeds are what /metrics reports as phase latency.
	if c.Journal != "" || profiling || c.DebugAddr != "" {
		topt := Options{PprofLabels: profiling}
		if c.Journal != "" {
			f, err := os.Create(c.Journal)
			if err != nil {
				return nil, fmt.Errorf("journal: %w", err)
			}
			rt.journal = NewJournal(f)
			topt.Journal = rt.journal
		}
		if c.Verbose {
			topt.Logger = rt.Logger
		}
		rt.Tracer = NewTracer(topt)
	}
	if profiling {
		stop, err := StartProfiles(ProfileConfig{
			CPUProfile: c.CPUProfile,
			MemProfile: c.MemProfile,
			Trace:      c.TracePath,
		})
		if err != nil {
			rt.Close()
			return nil, err
		}
		rt.stopProfiles = stop
	}
	if c.DebugAddr != "" {
		srv, err := Serve(c.DebugAddr, Default)
		if err != nil {
			rt.Close()
			return nil, fmt.Errorf("debug server: %w", err)
		}
		rt.Debug = srv
		rt.Logger.Info("debug server listening", "addr", srv.Addr())
	}
	return rt, nil
}

// Context returns ctx carrying the runtime's tracer (ctx unchanged when
// tracing is off).
func (rt *Runtime) Context(ctx context.Context) context.Context {
	return WithTracer(ctx, rt.Tracer)
}

// Close stops the profilers and flushes and closes the journal, reporting
// the first error. Safe on a partially built or nil runtime.
func (rt *Runtime) Close() error {
	if rt == nil {
		return nil
	}
	var first error
	if rt.Debug != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := rt.Debug.Shutdown(ctx); err != nil {
			first = err
		}
		cancel()
		rt.Debug = nil
	}
	if rt.stopProfiles != nil {
		if err := rt.stopProfiles(); err != nil && first == nil {
			first = err
		}
		rt.stopProfiles = nil
	}
	if err := rt.journal.Close(); err != nil && first == nil {
		first = err
	}
	rt.journal = nil
	return first
}
