package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"dedc/internal/circuit"
	"dedc/internal/gen"
)

// The speed probe tracks how fast the host runs the engine's kind of work.
// On a shared host the CPU time of one and the same op moves by a tenth or
// more between runs a few minutes apart, with what other tenants run, even
// though CPU time already leaves out the time the hypervisor steals. The
// probe times a fixed piece of work every probeEvery during the op loop:
// the checker's own gate evaluator, which allocates as it goes like the
// engine does, on c5315* over 2048 fixed random patterns. The run's median
// probe time, against probeRefMS, scales the CPU-time metrics.
//
// Measured on the reference host: over three minutes, 10-second means of
// the probe and of table2 ops correlated at 0.90; rerunning six seeds of
// table1-stuckat twenty minutes apart, the raw CPU per op moved by 7 % on
// average and the scaled one by 3 %. An allocation-free evaluator of the
// same circuit hardly moved when the ops slowed, so it is not the probe.
type speedProbe struct {
	c       *circuit.Circuit
	p       patterns
	last    time.Time
	samples []float64 // thread CPU time of each probe, ms
}

const (
	probeEvery = 200 * time.Millisecond
	// probeRefMS is the probe's median CPU time on the reference host, a
	// 2-vCPU VM with Go 1.24.
	probeRefMS = 0.45
)

// newSpeedProbe builds the probe's circuit and random patterns. It uses
// no engine code beyond building the suite circuit.
func newSpeedProbe() (*speedProbe, error) {
	bm, ok := gen.ByName("c5315*")
	if !ok {
		return nil, fmt.Errorf("probe: no suite circuit c5315*")
	}
	c := bm.Build()
	const n = 2048
	rng := rand.New(rand.NewSource(vectorSeed))
	rows := make([][]uint64, len(c.PIs))
	for i := range rows {
		rows[i] = make([]uint64, n/64)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64()
		}
	}
	if _, err := cpuClock(clockThreadCPU); err != nil {
		return nil, fmt.Errorf("probe: thread CPU clock: %w", err)
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	return &speedProbe{c: c, p: patternsFor(c, rows, n)}, nil
}

// due runs the probe if probeEvery has passed since it last ran.
func (s *speedProbe) due() {
	if time.Since(s.last) >= probeEvery {
		s.sample()
	}
}

// sample runs the probe once and records the CPU time of its thread.
func (s *speedProbe) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	if _, err := evaluate(s.c, s.p); err != nil {
		panic(err) // a fixed circuit of the suite always evaluates
	}
	s.samples = append(s.samples, ms(threadCPU()-c0))
	s.last = time.Now()
}

// factor is what the run's CPU times are scaled by: probeRefMS over the
// median probe time.
func (s *speedProbe) factor() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	return probeRefMS / median(s.samples)
}

// cpuClock reads one of the kernel's CPU-time clocks.
func cpuClock(id int64) (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, e
	}
	return time.Duration(ts.Nano()), nil
}

// procCPU is the CPU time of process pid so far, all threads, from the
// kernel's per-process CPU clock. On a guest with paravirtual steal
// accounting the clock leaves out time the hypervisor stole from the VM's
// CPUs.
func procCPU(pid int) (time.Duration, error) {
	d, err := cpuClock(^int64(pid)<<3 | 2) // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)
	if err != nil {
		return 0, fmt.Errorf("cpu clock of pid %d: %w", pid, err)
	}
	return d, nil
}

// selfCPU is the CPU time of this process so far, all threads.
func selfCPU() time.Duration {
	d, err := procCPU(os.Getpid())
	if err != nil {
		panic(err) // newSpeedProbe checked the clock
	}
	return d
}

// clockThreadCPU is CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPU = 3

// threadCPU is the CPU time of the calling thread so far.
func threadCPU() time.Duration {
	d, err := cpuClock(clockThreadCPU)
	if err != nil {
		panic(err) // newSpeedProbe checked the clock
	}
	return d
}
