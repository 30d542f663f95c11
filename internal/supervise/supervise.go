// Package supervise implements the crash-only execution substrate for the
// diagnosis service: a bounded-queue worker pool in which any single job may
// fail, hang, or panic without taking the process — or its neighbours — down
// with it.
//
// The design applies the crash-only school's rules at job granularity:
//
//   - Bounded queue, load shedding. Submit never blocks; when the queue is
//     full the job is rejected with ErrQueueFull and the caller applies
//     backpressure. An unbounded queue only converts overload into a slower,
//     memory-exhausting failure later.
//   - Per-job deadlines. Every job context carries the pool's JobTimeout, so
//     a wedged job becomes an error, not a stuck worker.
//   - Panic isolation. A panicking job is recovered, its post-mortem (ID,
//     panic value, stack) handed to OnDone as a *PanicError, and the worker
//     goroutine is replaced with a fresh one — nothing initialized by the
//     dead worker is trusted again. The job is not retried: an input that crashed the code
//     once is presumed to crash it again (poison-pill semantics).
//   - One attempt per submission. An errored job is reported failed and not
//     re-run; retry policy belongs to the caller (dedcd's durable store
//     requeues failed attempts with capped, jittered backoff).
package supervise

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"dedc/internal/telemetry"
)

// Pool counters in the process-wide registry, mirroring Stats: Stats stays
// the per-pool snapshot API, these feed the /metrics endpoint without a
// registry plumbed through every constructor.
var (
	cSubmitted   = telemetry.Default.Counter("pool.submitted")
	cShed        = telemetry.Default.Counter("pool.shed")
	cCompleted   = telemetry.Default.Counter("pool.completed")
	cFailed      = telemetry.Default.Counter("pool.failed")
	cPanics      = telemetry.Default.Counter("pool.panics")
	cWorkersLost = telemetry.Default.Counter("pool.workers_lost")
)

// Submission errors.
var (
	// ErrQueueFull reports load shedding: the bounded queue is at capacity
	// and the pool refuses the job rather than buffer unboundedly.
	ErrQueueFull = errors.New("supervise: queue full, job shed")
	// ErrDraining reports a Submit after Drain began.
	ErrDraining = errors.New("supervise: pool is draining")
)

// Job is one unit of supervised work. The context carries the per-job
// deadline; jobs are expected to poll it. A returned error marks the job
// failed; a panic marks its input poisonous.
type Job func(ctx context.Context) error

// Options configures a Pool. The zero value is usable: 4 workers, a queue of
// 16, no deadline.
type Options struct {
	// Workers is the number of concurrent workers (default 4).
	Workers int
	// QueueDepth bounds the submission queue (default 16). Submissions
	// beyond it are shed with ErrQueueFull.
	QueueDepth int
	// JobTimeout is the per-job deadline (0 = none).
	JobTimeout time.Duration
	// OnDone, when set, observes every job's outcome (nil err on success,
	// the job's error on failure, a *PanicError after a panic). The job's
	// worker already counts as idle when it runs.
	OnDone func(id string, err error)
}

// PanicError is the terminal outcome of a job whose execution panicked,
// passed to OnDone. Stack is the panicking goroutine's stack at recovery;
// Error omits it, so a caller that logs the post-mortem logs Stack itself.
type PanicError struct {
	ID    string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("supervise: job %q panicked: %v", e.ID, e.Value)
}

// Stats is a snapshot of the pool's counters.
type Stats struct {
	Submitted   int64 // jobs accepted into the queue
	Shed        int64 // jobs rejected with ErrQueueFull
	Completed   int64 // jobs that finished successfully
	Failed      int64 // jobs that returned an error
	Panics      int64 // jobs that panicked
	WorkersLost int64 // worker goroutines replaced after a panic
}

type task struct {
	id  string
	job Job
}

// Pool is a supervised worker pool. Create with New, feed with Submit, shut
// down with Drain.
type Pool struct {
	opt   Options
	queue chan task

	wg sync.WaitGroup

	mu       sync.Mutex
	draining bool
	active   int // jobs accepted and not yet finished: queued or running
	stats    Stats
}

// New starts a pool with opt.Workers workers.
func New(opt Options) *Pool {
	if opt.Workers <= 0 {
		opt.Workers = 4
	}
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = 16
	}
	p := &Pool{
		opt:   opt,
		queue: make(chan task, opt.QueueDepth),
	}
	for i := 0; i < opt.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Submit offers a job to the pool without blocking. It returns ErrQueueFull
// when the queue is at capacity (shed: the caller owns backpressure) and
// ErrDraining once Drain has begun.
func (p *Pool) Submit(id string, job Job) error {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		return ErrDraining
	}
	// Reserve under the lock so Submit/Drain can't race a send on a closed
	// channel: Drain flips draining before closing the queue.
	select {
	case p.queue <- task{id: id, job: job}:
		p.stats.Submitted++
		p.active++
		p.mu.Unlock()
		cSubmitted.Inc()
		return nil
	default:
		p.stats.Shed++
		p.mu.Unlock()
		cShed.Inc()
		return ErrQueueFull
	}
}

// Idle returns the number of workers with nothing to do: neither running a
// job nor owed one by the queue (0 while draining). A job submitted while
// Idle is positive starts at once, and with it its deadline, so a
// dispatcher that claims durable jobs claims only that many: a claimed job
// never waits behind a busy worker.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return 0
	}
	return max(p.opt.Workers-p.active, 0)
}

// Drain stops intake and waits for queued and in-flight jobs to finish. It
// returns ctx.Err() if the context expires first; the pool keeps finishing
// work in the background regardless. Drain is idempotent only in effect —
// call it once.
func (p *Pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	already := p.draining
	p.draining = true
	p.mu.Unlock()
	if !already {
		close(p.queue)
	}
	finished := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// worker consumes the queue until it closes. It inherits its predecessor's
// WaitGroup slot when spawned as a panic replacement, so Drain accounting
// stays exact across worker deaths.
func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.queue {
		if p.runSupervised(t) {
			// The job panicked and this worker is condemned: hand the slot
			// to a replacement and exit. The replacement re-enters the
			// queue loop with fresh goroutine state.
			p.wg.Add(1)
			go p.worker()
			return
		}
	}
}

// runSupervised executes one task and records its outcome, reporting whether
// it ended in a panic (condemning the calling worker).
func (p *Pool) runSupervised(t task) (panicked bool) {
	err, panicked := p.attempt(t)
	p.mu.Lock()
	p.active--
	switch {
	case panicked:
		p.stats.Panics++
		p.stats.WorkersLost++
	case err == nil:
		p.stats.Completed++
	default:
		p.stats.Failed++
	}
	p.mu.Unlock()
	switch {
	case panicked:
		cPanics.Inc()
		cWorkersLost.Inc()
	case err == nil:
		cCompleted.Inc()
	default:
		cFailed.Inc()
	}
	if p.opt.OnDone != nil {
		p.opt.OnDone(t.id, err)
	}
	return panicked
}

// attempt runs the job once under the per-job deadline, converting a panic
// into a *PanicError.
func (p *Pool) attempt(t task) (err error, panicked bool) {
	ctx := context.Background()
	if p.opt.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.opt.JobTimeout)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			err, panicked = &PanicError{ID: t.id, Value: v, Stack: debug.Stack()}, true
		}
	}()
	return t.job(ctx), false
}
