package supervise

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func drain(t *testing.T, p *Pool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestAllJobsComplete(t *testing.T) {
	p := New(Options{Workers: 4, QueueDepth: 128})
	var done atomic.Int64
	for i := 0; i < 100; i++ {
		if err := p.Submit("job", func(context.Context) error {
			done.Add(1)
			return nil
		}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	drain(t, p)
	if got := done.Load(); got != 100 {
		t.Errorf("ran %d jobs, want 100", got)
	}
	st := p.Stats()
	if st.Completed != 100 || st.Submitted != 100 || st.Failed != 0 || st.Panics != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLoadShedding(t *testing.T) {
	block := make(chan struct{})
	p := New(Options{Workers: 1, QueueDepth: 1})
	slow := func(context.Context) error { <-block; return nil }
	// First job occupies the worker, second fills the queue; the pool must
	// shed from there on instead of blocking the submitter.
	if err := p.Submit("a", slow); err != nil {
		t.Fatal(err)
	}
	shed := 0
	for i := 0; i < 10; i++ {
		if err := p.Submit("b", slow); errors.Is(err, ErrQueueFull) {
			shed++
		}
	}
	if shed < 9 {
		t.Errorf("shed %d of 10 overflow submissions, want >= 9", shed)
	}
	close(block)
	drain(t, p)
	if st := p.Stats(); st.Shed != int64(shed) {
		t.Errorf("Stats.Shed = %d, want %d", st.Shed, shed)
	}
}

func TestPanicQuarantineAndWorkerReplacement(t *testing.T) {
	var mu sync.Mutex
	var panics []*PanicError
	p := New(Options{Workers: 2, QueueDepth: 64, OnDone: func(_ string, err error) {
		var pe *PanicError
		if errors.As(err, &pe) {
			mu.Lock()
			panics = append(panics, pe)
			mu.Unlock()
		}
	}})
	var done atomic.Int64
	if err := p.Submit("poison", func(context.Context) error {
		panic("boom")
	}); err != nil {
		t.Fatal(err)
	}
	// The pool must keep digesting normal work after the crash.
	for i := 0; i < 20; i++ {
		if err := p.Submit("ok", func(context.Context) error {
			done.Add(1)
			return nil
		}); err != nil {
			t.Fatalf("Submit after panic: %v", err)
		}
	}
	drain(t, p)
	if got := done.Load(); got != 20 {
		t.Errorf("completed %d jobs after the panic, want 20", got)
	}
	st := p.Stats()
	if st.Panics != 1 || st.WorkersLost != 1 || st.Completed != 20 {
		t.Errorf("stats = %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(panics) != 1 {
		t.Fatalf("OnDone saw %d panics, want 1", len(panics))
	}
	pe := panics[0]
	if pe.ID != "poison" || pe.Value != "boom" {
		t.Errorf("PanicError = %q / %v", pe.ID, pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "supervise") {
		t.Error("PanicError carries no stack")
	}
	if !strings.Contains(pe.Error(), "poison") {
		t.Errorf("PanicError.Error() = %q", pe.Error())
	}
}

func TestJobDeadline(t *testing.T) {
	p := New(Options{Workers: 1, JobTimeout: 20 * time.Millisecond})
	var got error
	var mu sync.Mutex
	if err := p.Submit("hang", func(ctx context.Context) error {
		<-ctx.Done()
		mu.Lock()
		got = ctx.Err()
		mu.Unlock()
		return ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	drain(t, p)
	mu.Lock()
	defer mu.Unlock()
	if !errors.Is(got, context.DeadlineExceeded) {
		t.Errorf("job ctx error = %v, want DeadlineExceeded", got)
	}
	if st := p.Stats(); st.Failed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSubmitAfterDrain(t *testing.T) {
	p := New(Options{Workers: 1})
	drain(t, p)
	if err := p.Submit("late", func(context.Context) error { return nil }); !errors.Is(err, ErrDraining) {
		t.Errorf("Submit after Drain = %v, want ErrDraining", err)
	}
}

func TestDrainDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	p := New(Options{Workers: 1})
	if err := p.Submit("stuck", func(context.Context) error { <-release; return nil }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Drain with wedged job = %v, want DeadlineExceeded", err)
	}
}

func TestOnDoneReceivesPanicError(t *testing.T) {
	var mu sync.Mutex
	var got error
	p := New(Options{Workers: 1, OnDone: func(id string, err error) {
		mu.Lock()
		got = err
		mu.Unlock()
	}})
	if err := p.Submit("poison", func(context.Context) error { panic(42) }); err != nil {
		t.Fatal(err)
	}
	drain(t, p)
	mu.Lock()
	defer mu.Unlock()
	var pe *PanicError
	if !errors.As(got, &pe) || pe.Value != 42 {
		t.Errorf("OnDone error = %#v, want *PanicError{Value: 42}", got)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	p := New(Options{Workers: 8, QueueDepth: 1024})
	var done atomic.Int64
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				err := p.Submit("j", func(context.Context) error { done.Add(1); return nil })
				if err == nil {
					accepted.Add(1)
				} else if !errors.Is(err, ErrQueueFull) {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	drain(t, p)
	if done.Load() != accepted.Load() {
		t.Errorf("ran %d jobs, accepted %d", done.Load(), accepted.Load())
	}
	st := p.Stats()
	if st.Completed != accepted.Load() || st.Submitted != accepted.Load() {
		t.Errorf("stats = %+v, accepted %d", st, accepted.Load())
	}
}

func TestIdleTracksWorkers(t *testing.T) {
	block := make(chan struct{})
	idleAtDone := make(chan int, 4)
	var p *Pool
	p = New(Options{Workers: 2, QueueDepth: 4, OnDone: func(string, error) { idleAtDone <- p.Idle() }})
	if got := p.Idle(); got != 2 {
		t.Fatalf("Idle on a fresh pool = %d, want 2", got)
	}
	started := make(chan struct{})
	if err := p.Submit("blocker", func(context.Context) error {
		close(started)
		<-block
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	if got := p.Idle(); got != 1 {
		t.Errorf("Idle with one job running = %d, want 1", got)
	}
	// Queued jobs are owed to workers: two more leave none idle, though the
	// queue still has room.
	for i := 0; i < 2; i++ {
		if err := p.Submit("wait", func(context.Context) error { <-block; return nil }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if got := p.Idle(); got != 0 {
		t.Errorf("Idle with one job queued behind two workers = %d, want 0", got)
	}
	close(block)
	// OnDone runs after the finished job stops counting against its worker,
	// so the last job's OnDone sees every worker idle.
	seen := 0
	for i := 0; i < 3; i++ {
		seen = max(seen, <-idleAtDone)
	}
	if seen != 2 {
		t.Errorf("largest Idle seen from OnDone = %d, want 2", seen)
	}
	if got := p.Idle(); got != 2 {
		t.Errorf("Idle after every job finished = %d, want 2", got)
	}
	drain(t, p)
	if got := p.Idle(); got != 0 {
		t.Errorf("Idle after drain = %d, want 0 (no intake)", got)
	}
}
