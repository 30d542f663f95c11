// Command perfbench is the end-to-end diagnosis benchmark of the dedc
// engine. One op is one diagnosis: a netlist and reference responses in, a
// checked correction set or set of fault tuples out. Each workload builds
// its inputs from -seed, runs ops for -seconds, checks every answer with an
// oracle that does not go through the engine's own verify gate, and prints
// one JSON object as the last line of standard output.
//
//	perfbench -workload table2-repair -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the JSON carries the end-to-end metrics; with -trace 1 a
// separate run wraps every call into a layer's public function in a span and
// reports per-layer metrics whose times, plus trace.unattributed_ms, add up
// to the mean op wall time (trace.op_ms). See RATIONALE.md for what each
// workload loads and bypasses.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// minOps is the smallest run: a run keeps going past -seconds until it
// holds this many ops, so the p90 always has more than ten samples above
// it. solved_frac counts these first ops alone, so it depends on the seed
// and not on how many ops the host's speed let a run complete.
const minOps = 256

// preOps is how many ops' inputs set-up builds; a run builds the rest on
// the way.
const preOps = 100

// hardStop bounds a run's op loop regardless of -seconds and minOps, well
// inside the 180-second limit a run must exit within.
const hardStop = 120 * time.Second

// setups is how many times a run sets up; setup_s is the median.
const setups = 9

// workload is one input family. setup builds everything the op stream
// shares (circuits, vectors, reference responses, a daemon); run executes
// the ops and returns one record per op in index order.
type workload interface {
	name() string
	// load describes the concurrency the workload puts on the host.
	load() loadInfo
	setup(seed int64) error
	run(ctx context.Context, env *runEnv) ([]*opRec, window, error)
	close()
}

// loadInfo is the host-load record of a workload: closed-loop clients and
// the worker goroutines each op may fan out to.
type loadInfo struct {
	Clients    int `json:"clients"`
	Workers    int `json:"workers"`
	SimWorkers int `json:"sim_workers,omitempty"` // dedcd's evaluation workers per job
}

// window is what the op loop measured around the ops themselves.
type window struct {
	// peakRSS is the peak resident set of the process doing the work, in
	// bytes, as the workload measures it (see RATIONALE.md).
	peakRSS int64
}

// runEnv is what the op loop of every workload shares.
type runEnv struct {
	seconds time.Duration
	tr      *tracer
	probe   *speedProbe
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, fmt.Sprintf("how long the op loop measures (it also runs until it holds %d ops)", minOps))
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	dedcd := fs.String("dedcd", filepath.Join(".bench_build", "bin", "dedcd"), "dedcd binary for service-mix")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	ncpu := runtime.NumCPU()
	w, err := newWorkload(*wl, ncpu, *dedcd)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer w.close()
	if ld := w.load(); ld.Clients > ncpu || ld.Workers > ncpu || ld.SimWorkers > ncpu {
		fmt.Fprintf(stderr, "perfbench: refusing load clients=%d workers=%d sim_workers=%d on %d CPUs\n",
			ld.Clients, ld.Workers, ld.SimWorkers, ncpu)
		return 2
	}

	host := hostRecord{Workload: w.name(), Seed: *seed, Seconds: *seconds, Trace: *trace,
		NumCPU: ncpu, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Load: w.load()}
	hb, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hb)

	probe, err := newSpeedProbe()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	// Set-up is timed in CPU, like the ops: this process's, plus that of
	// the daemon a workload boots.
	var setupWall, setupCPU []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			w.close() // undo the previous setup, untimed
		}
		t0, c0 := time.Now(), selfCPU()
		if err := w.setup(*seed); err != nil {
			fmt.Fprintln(stderr, "perfbench: setup:", err)
			return 1
		}
		cpu := selfCPU() - c0
		if svc, ok := w.(*service); ok {
			dc, err := svc.daemonCPU()
			if err != nil {
				fmt.Fprintln(stderr, "perfbench: setup:", err)
				return 1
			}
			cpu += dc
		}
		setupWall = append(setupWall, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, cpu.Seconds())
	}

	env := &runEnv{seconds: time.Duration(*seconds) * time.Second, tr: newTracer(*trace == 1), probe: probe}
	ops, win, err := w.run(context.Background(), env)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: run:", err)
		return 1
	}
	if len(ops) == 0 {
		fmt.Fprintln(stderr, "perfbench: no ops ran")
		return 1
	}

	failed := 0
	for _, o := range ops {
		if o.Failed {
			failed++
			fmt.Fprintf(stdout, "FAILED op %d: %s\n", o.Index, o.Reason)
		}
	}
	fmt.Fprintf(stdout, "speed probes=%d probe_ms=%.4f ref_ms=%.4f factor=%.4f\n",
		len(probe.samples), median(probe.samples), probeRefMS, probe.factor())
	fmt.Fprintf(stdout, "setup n=%d wall_s=%.4f cpu_s=%.4f\n", setups, median(setupWall), median(setupCPU))
	if err := writeRecord(w.name(), *seed, *trace, ops, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench: record:", err)
		return 1
	}

	var metrics map[string]metric
	if *trace == 1 {
		metrics = layerMetrics(ops, env.tr)
		printPaperTables(stdout, w.name(), ops)
		printIdentity(stdout, metrics)
		if err := env.tr.writeSpans(spanPath(w.name(), *seed)); err != nil {
			fmt.Fprintln(stderr, "perfbench: spans:", err)
			return 1
		}
	} else {
		metrics = endToEndMetrics(ops, win, median(setupCPU), probe.factor())
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, len(ops), failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if failed > 0 {
		return 1
	}
	return 0
}

// hostRecord is printed first by every run: the seed, the host and the
// load the workload put on it.
type hostRecord struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Trace      int      `json:"trace"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Load       loadInfo `json:"load"`
}

func workloadNames() []string {
	return []string{"table2-repair", "table1-stuckat", "service-mix", "cegar-proof"}
}

// newWorkload builds the named workload. Service-mix runs one client per
// CPU and table1-stuckat fans each op out to one worker per CPU; the other
// workloads run one op at a time on one worker.
func newWorkload(name string, ncpu int, dedcd string) (workload, error) {
	switch name {
	case "table2-repair":
		return &table2{}, nil
	case "table1-stuckat":
		return &table1{workers: ncpu}, nil
	case "service-mix":
		return &service{clients: ncpu, dedcd: dedcd}, nil
	case "cegar-proof":
		return &cegar{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

// benchDir is the benchmark's scratch directory inside the checkout.
func benchDir() string { return filepath.Join(".bench_build", "perfbench") }

func spanPath(workload string, seed int64) string {
	return filepath.Join(benchDir(), fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
}

// writeRecord writes the determinism record: one line per op with its
// answer digest and exact counts. It prints a digest over the first minOps
// ops, which every run holds, so two runs of the same code and seed can be
// compared by one line.
func writeRecord(workload string, seed int64, trace int, ops []*opRec, stdout io.Writer) error {
	path := filepath.Join(benchDir(), fmt.Sprintf("record-%s-%d-trace%d.jsonl", workload, seed, trace))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	h := newDigest()
	solved := 0
	for i, o := range ops {
		line := o.recordLine()
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
		if i < minOps {
			b, _ := json.Marshal(line)
			h.add(string(b))
			if o.Solved {
				solved++
			}
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	n := min(len(ops), minOps)
	fmt.Fprintf(stdout, "determinism ops=%d first=%d solved_frac=%.4f digest=%s record=%s\n",
		len(ops), n, float64(solved)/float64(max(n, 1)), h.sum(), path)
	return nil
}
