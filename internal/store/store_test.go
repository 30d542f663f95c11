package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded manual clock for backoff-timing tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func memStore(t *testing.T, clk *fakeClock, opt Options) *Store {
	t.Helper()
	if clk != nil {
		opt.Now = clk.Now
	}
	s := NewMemory(opt)
	t.Cleanup(func() { s.Close() })
	return s
}

func submit(t *testing.T, s *Store, spec string) Job {
	t.Helper()
	j, err := s.Submit(json.RawMessage(spec))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return j
}

func mustClaim(t *testing.T, s *Store, worker string) Job {
	t.Helper()
	j, ok, err := s.Claim(worker)
	if err != nil || !ok {
		t.Fatalf("Claim(%s) = ok=%v err=%v, want a job", worker, ok, err)
	}
	return j
}

func TestSubmitClaimCompleteLifecycle(t *testing.T) {
	s := memStore(t, nil, Options{})
	j := submit(t, s, `{"impl":"x"}`)
	if j.ID != "job-1" || j.State != StateQueued {
		t.Fatalf("submitted job = %+v", j)
	}
	c := mustClaim(t, s, "w1")
	if c.ID != j.ID || c.State != StateRunning || c.Attempt != 1 || c.Worker != "w1" {
		t.Fatalf("claimed job = %+v", c)
	}
	if err := s.Complete(c.ID, "w1", json.RawMessage(`{"solved":true}`)); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	got, p := s.Lookup(j.ID)
	if p != Found || got.State != StateDone || string(got.Result) != `{"solved":true}` {
		t.Fatalf("after complete: %+v (presence %d)", got, p)
	}
	// Terminal states are sticky.
	if err := s.Cancel(j.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("Cancel(done) = %v, want ErrTerminal", err)
	}
	if err := s.Complete(j.ID, "w1", nil); !errors.Is(err, ErrTerminal) {
		t.Errorf("Complete(done) = %v, want ErrTerminal", err)
	}
}

// TestDoubleClaimRejected: a job claimed by one worker is not handed to a
// second claimer, and claim operations from the non-holder are rejected.
func TestDoubleClaimRejected(t *testing.T) {
	s := memStore(t, nil, Options{})
	j := submit(t, s, `{}`)
	mustClaim(t, s, "w1")
	if _, ok, err := s.Claim("w2"); ok || err != nil {
		t.Fatalf("second Claim = ok=%v err=%v, want no job", ok, err)
	}
	if err := s.Complete(j.ID, "w2", nil); !errors.Is(err, ErrWrongWorker) {
		t.Errorf("Complete by non-holder = %v, want ErrWrongWorker", err)
	}
}

// TestStaleAttemptCannotSettleSuccessor reproduces the same-process re-claim
// hazard: a failed attempt's job is requeued and re-claimed by the same
// process under a fresh per-attempt token, and the stale attempt's late
// outcome writes must bounce off the claim check instead of burning the
// successor's claim.
func TestStaleAttemptCannotSettleSuccessor(t *testing.T) {
	clk := newFakeClock()
	s := memStore(t, clk, Options{
		MaxAttempts: 3,
		BackoffBase: time.Millisecond, BackoffMax: time.Millisecond,
	})
	j := submit(t, s, `{}`)
	stale := mustClaim(t, s, "dedcd-1.c1")
	if err := s.Fail(j.ID, stale.Worker, "transient"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second) // past the retry backoff
	fresh := mustClaim(t, s, "dedcd-1.c2")
	if fresh.ID != j.ID || fresh.Attempt != 2 {
		t.Fatalf("re-claim = %+v, want %s attempt 2", fresh, j.ID)
	}
	// The stale attempt unwinds late and reports its outcome under its own
	// token: every write must be rejected.
	if err := s.Fail(j.ID, stale.Worker, "late failure"); !errors.Is(err, ErrWrongWorker) {
		t.Errorf("stale Fail = %v, want ErrWrongWorker", err)
	}
	if err := s.FailTerminal(j.ID, stale.Worker, "late panic"); !errors.Is(err, ErrWrongWorker) {
		t.Errorf("stale FailTerminal = %v, want ErrWrongWorker", err)
	}
	if err := s.Complete(j.ID, stale.Worker, nil); !errors.Is(err, ErrWrongWorker) {
		t.Errorf("stale Complete = %v, want ErrWrongWorker", err)
	}
	// The successor's claim is intact and settles normally.
	got, _ := s.Lookup(j.ID)
	if got.State != StateRunning || got.Worker != fresh.Worker {
		t.Fatalf("job after stale writes = %+v, want running under %s", got, fresh.Worker)
	}
	if err := s.Complete(j.ID, fresh.Worker, json.RawMessage(`"ok"`)); err != nil {
		t.Errorf("successor Complete = %v", err)
	}
}

// TestRequeueOrderingFairness: a retried job rejoins the queue behind work
// that was already waiting — requeues cannot starve fresh submissions.
func TestRequeueOrderingFairness(t *testing.T) {
	clk := newFakeClock()
	s := memStore(t, clk, Options{
		MaxAttempts: 5,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	})
	a := submit(t, s, `"a"`)
	b := submit(t, s, `"b"`)
	c := submit(t, s, `"c"`)

	first := mustClaim(t, s, "w1")
	if first.ID != a.ID {
		t.Fatalf("first claim = %s, want FIFO head %s", first.ID, a.ID)
	}
	if err := s.Fail(a.ID, "w1", "transient"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second) // clear a's backoff so only ordering decides
	if got := mustClaim(t, s, "w1"); got.ID != b.ID {
		t.Errorf("claim after requeue = %s, want %s (b was waiting first)", got.ID, b.ID)
	}
	if got := mustClaim(t, s, "w2"); got.ID != c.ID {
		t.Errorf("next claim = %s, want %s", got.ID, c.ID)
	}
	retried := mustClaim(t, s, "w3")
	if retried.ID != a.ID || retried.Attempt != 2 {
		t.Errorf("retried claim = %s attempt %d, want %s attempt 2", retried.ID, retried.Attempt, a.ID)
	}
}

// TestBackoffDelaysReclaim: after a failed attempt the job is not claimable
// until its jittered backoff expires.
func TestBackoffDelaysReclaim(t *testing.T) {
	clk := newFakeClock()
	base := 100 * time.Millisecond
	s := memStore(t, clk, Options{MaxAttempts: 3, BackoffBase: base, BackoffMax: time.Second})
	j := submit(t, s, `{}`)
	mustClaim(t, s, "w1")
	if err := s.Fail(j.ID, "w1", "boom"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Claim("w1"); ok {
		t.Fatal("claim succeeded inside the backoff window")
	}
	// Backoff is base..1.5×base for the first retry.
	clk.Advance(base + base/2)
	if got := mustClaim(t, s, "w1"); got.ID != j.ID || got.Attempt != 2 {
		t.Fatalf("reclaim after backoff = %+v", got)
	}
}

// TestRetriesExhaustToTerminalFailed: the MaxAttempts-th failure is terminal,
// with the attempt arithmetic visible in the error.
func TestRetriesExhaustToTerminalFailed(t *testing.T) {
	clk := newFakeClock()
	s := memStore(t, clk, Options{MaxAttempts: 2, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond})
	j := submit(t, s, `{}`)
	for attempt := 1; ; attempt++ {
		clk.Advance(time.Hour)
		c := mustClaim(t, s, "w1")
		if c.Attempt != attempt {
			t.Fatalf("claim %d has attempt %d", attempt, c.Attempt)
		}
		if err := s.Fail(j.ID, "w1", "always broken"); err != nil {
			t.Fatal(err)
		}
		got, _ := s.Lookup(j.ID)
		if attempt < 2 {
			if got.State != StateQueued {
				t.Fatalf("after failure %d: state %s", attempt, got.State)
			}
			continue
		}
		if got.State != StateFailed {
			t.Fatalf("after final failure: state %s, want failed", got.State)
		}
		break
	}
	if _, ok, _ := s.Claim("w1"); ok {
		t.Error("terminally failed job was claimable")
	}
}

// TestRetryCountMonotoneAcrossRestart: attempts are derived from claim
// events, so closing the store and reopening the same directory continues
// the count instead of resetting it.
func TestRetryCountMonotoneAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	opt := Options{MaxAttempts: 10, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond, Now: clk.Now}
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	j := submit(t, s, `{}`)
	mustClaim(t, s, "w1")
	if err := s.Fail(j.ID, "w1", "first attempt"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour)
	c2 := mustClaim(t, s, "w1")
	if c2.Attempt != 2 {
		t.Fatalf("second claim attempt = %d", c2.Attempt)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart while attempt 2 held the claim: the orphaned claim is requeued
	// and the count keeps climbing from where it was.
	s2, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, p := s2.Lookup(j.ID)
	if p != Found || got.State != StateQueued || got.Attempt != 2 {
		t.Fatalf("after restart: %+v (presence %d), want queued attempt 2", got, p)
	}
	c3 := mustClaim(t, s2, "w9")
	if c3.Attempt != 3 {
		t.Errorf("claim after restart attempt = %d, want 3 (monotone across restarts)", c3.Attempt)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s := memStore(t, nil, Options{})
	q := submit(t, s, `{}`)
	r := submit(t, s, `{}`)
	claimed := mustClaim(t, s, "w1")
	if claimed.ID != q.ID {
		t.Fatalf("claimed %s, want %s", claimed.ID, q.ID)
	}
	if err := s.Cancel(r.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(q.ID); err != nil {
		t.Fatal(err)
	}
	// The late worker's result is rejected by the sticky terminal state.
	if err := s.Complete(q.ID, "w1", nil); !errors.Is(err, ErrTerminal) {
		t.Errorf("Complete after cancel = %v, want ErrTerminal", err)
	}
	if got, _ := s.Lookup(r.ID); got.State != StateCancelled {
		t.Errorf("queued cancel state = %s", got.State)
	}
}

func TestReleaseReturnsClaimWithoutBackoff(t *testing.T) {
	clk := newFakeClock()
	s := memStore(t, clk, Options{BackoffBase: time.Hour, BackoffMax: time.Hour})
	j := submit(t, s, `{}`)
	mustClaim(t, s, "w1")
	if err := s.Release(j.ID, "w1"); err != nil {
		t.Fatal(err)
	}
	// Immediately claimable again (no backoff), attempt count preserved.
	c := mustClaim(t, s, "w2")
	if c.ID != j.ID || c.Attempt != 2 {
		t.Fatalf("reclaim after release = %+v", c)
	}
}

func TestLookupDistinguishesUnknownFromEvicted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{RetainTerminal: 1, CompactEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		j := submit(t, s, `{}`)
		ids = append(ids, j.ID)
		c := mustClaim(t, s, "w1")
		if err := s.Complete(c.ID, "w1", json.RawMessage(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	// Two oldest terminal jobs evicted, newest retained.
	if _, p := s.Lookup(ids[2]); p != Found {
		t.Errorf("newest job presence = %d, want Found", p)
	}
	for _, id := range ids[:2] {
		if _, p := s.Lookup(id); p != Evicted {
			t.Errorf("pruned job %s presence = %d, want Evicted", id, p)
		}
	}
	if _, p := s.Lookup("job-999"); p != Unknown {
		t.Errorf("never-submitted presence = %d, want Unknown", p)
	}
	if _, p := s.Lookup("nonsense"); p != Unknown {
		t.Errorf("malformed id presence = %d, want Unknown", p)
	}
}

// TestConcurrentClaimsAreExclusive hammers Claim from many goroutines: every
// job is claimed exactly once (race-enabled runs make this a memory-model
// check too).
func TestConcurrentClaimsAreExclusive(t *testing.T) {
	s := memStore(t, nil, Options{})
	const jobs = 64
	for i := 0; i < jobs; i++ {
		submit(t, s, `{}`)
	}
	var mu sync.Mutex
	got := map[string]string{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := fmt.Sprintf("w%d", w)
			for {
				j, ok, err := s.Claim(worker)
				if err != nil {
					t.Errorf("Claim: %v", err)
					return
				}
				if !ok {
					return
				}
				mu.Lock()
				if prev, dup := got[j.ID]; dup {
					t.Errorf("job %s claimed by both %s and %s", j.ID, prev, worker)
				}
				got[j.ID] = worker
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(got) != jobs {
		t.Errorf("claimed %d jobs, want %d", len(got), jobs)
	}
}
