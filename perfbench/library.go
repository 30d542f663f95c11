package main

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"syscall"
	"time"
)

// opTimeout is the per-op hang guard. Every op also runs under a counted,
// host-independent limit, so the guard never decides an outcome on a
// healthy host; an op that reaches it counts as failed.
const opTimeout = 60 * time.Second

// libOp is one op of an in-process workload: inputs made before the timed
// section, the timed diagnosis, and the check after it.
type libOp struct {
	label string
	// run is the timed part. It fills the op record's counts and, on a
	// traced run, its layer split; it returns the answer for check.
	run func(ctx context.Context, o *opRec, tr *tracer, root int) (answer any, err error)
	// check validates the answer outside the timed section. It reports
	// whether the op solved its instance; an error marks the op failed.
	check func(o *opRec, answer any) (solved bool, err error)
}

// pregenerate builds the inputs of the first preOps ops, which every run
// holds; setup calls it so their input generation is part of set-up time.
func pregenerate(next func(i int) (libOp, error)) ([]libOp, error) {
	pre := make([]libOp, preOps)
	for i := range pre {
		op, err := next(i)
		if err != nil {
			return nil, fmt.Errorf("op %d inputs: %w", i, err)
		}
		pre[i] = op
	}
	return pre, nil
}

// runLibrary runs ops 0, 1, 2, … one at a time until the run has lasted
// env.seconds and holds minOps ops. Ops past the pregenerated ones build
// their inputs on the way. Only the run part of an op is timed, in wall
// time and in the process's CPU time; the speed probe runs between ops,
// and answers are checked after the loop.
func runLibrary(ctx context.Context, env *runEnv, pre []libOp, next func(i int) (libOp, error)) ([]*opRec, window, error) {
	var (
		ops     []*opRec
		run     []libOp
		answers []any
		win     window
	)
	win.peakRSS = memoryPass(ctx, pre[:min(memOps, len(pre))])
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if (el >= env.seconds && i >= minOps) || el >= hardStop {
			break
		}
		env.probe.due()
		var op libOp
		var err error
		if i < len(pre) {
			op = pre[i]
		} else if op, err = next(i); err != nil {
			return nil, win, fmt.Errorf("op %d inputs: %w", i, err)
		}
		o := &opRec{Index: i, Label: op.label}
		octx, cancel := context.WithTimeout(ctx, opTimeout)
		root := env.tr.begin(i)
		c0, t0 := selfCPU(), time.Now()
		ans, err := op.run(octx, o, env.tr, root)
		o.Wall, o.CPU = time.Since(t0), selfCPU()-c0
		env.tr.finish(root)
		switch {
		case err != nil:
			o.Failed, o.Reason = true, err.Error()
		case octx.Err() != nil:
			o.Failed, o.Reason = true, "hang guard: op exceeded "+opTimeout.String()
		}
		cancel()
		ops, run, answers = append(ops, o), append(run, op), append(answers, ans)
	}
	for i, o := range ops {
		if o.Failed {
			continue
		}
		solved, err := run[i].check(o, answers[i])
		if err != nil {
			o.Failed, o.Reason = true, "checker: "+err.Error()
		}
		o.Solved = solved && err == nil
	}
	return ops, win, nil
}

// memOps is how many ops the memory pass runs.
const memOps = 15

// memoryPass measures the peak resident set of single ops: it runs the
// first ops one at a time before the timed loop, each after handing freed
// memory back to the OS and resetting the process's peak-RSS mark, and
// returns the median of the marks the ops leave. Measured this way the
// peak depends on what one diagnosis needs, not on where the garbage
// collector happened to run, nor on how many op records a run of this
// host's speed has kept by the end of its loop. The pass also warms the
// loop up.
func memoryPass(ctx context.Context, ops []libOp) int64 {
	var peaks []float64
	for i, op := range ops {
		debug.FreeOSMemory()
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return selfPeakRSS() // no reset: the whole run's mark
		}
		op.run(ctx, &opRec{Index: i}, newTracer(false), -1)
		p, err := procPeakRSS(os.Getpid())
		if err != nil {
			return selfPeakRSS()
		}
		peaks = append(peaks, float64(p))
	}
	return int64(median(peaks))
}

// selfPeakRSS is this process's resident-set high-water mark in bytes.
func selfPeakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // kilobytes on Linux
}

// opSeed derives op i's input seed from the run seed.
func opSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x >> 1)
}
