// Package store is the durable, event-sourced job store behind the dedcd
// service: an append-only, CRC-framed, fsync'd event log with periodic
// snapshots, replayed on boot so the daemon itself holds no job state a
// restart can lose.
//
// Every state change is one appended event (submit, claim, requeue,
// complete, fail, cancel); the in-memory job table is purely derived. Logs
// written by older builds may also hold checkpoint_ref and renew events,
// which replay accepts as no-ops. Jobs move through a claim state machine:
//
//	          submit                 claim(worker, attempt)
//	───────────────────▶ queued ───────────────────────▶ running
//	                       ▲                               │ │ │
//	 requeue (retry,       │   fail (attempts left), boot  │ │ │
//	 orphaned, released)   └──── orphan, release ◀─────────┘ │ │
//	                                                         │ │
//	                       complete ◀────────────────────────┘ │
//	                       fail/cancel (terminal) ◀────────────┘
//
// A claim holds the job until the attempt's outcome write, a cancel, or the
// death of the process; there is no lease TTL. One process owns a store
// directory (an exclusive flock), so no other holder could take a silent
// claim over. Each claim carries a caller-chosen worker token, and only the
// holder's token may settle the attempt: a stale attempt's late write is
// rejected with ErrWrongWorker, ErrNotRunning or ErrTerminal. A failed
// attempt is requeued with capped retries and jittered exponential backoff;
// after MaxAttempts the job fails terminally. On Open the log is replayed
// (tolerating a crash-truncated tail, rejecting interior corruption with
// ErrCorrupt) and jobs that were running when the process died are requeued
// immediately as orphans, so a killed daemon resumes its whole workload from
// the last recorded state.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dedc/internal/telemetry"
)

// Typed failures of the store boundary.
var (
	// ErrCorrupt reports an event log or snapshot damaged anywhere but the
	// crash-truncated tail: a CRC mismatch with data after it, a sequence
	// gap, an illegal state transition. Recovery never silently skips such
	// damage — it either replays cleanly to the last valid record or fails
	// with this error.
	ErrCorrupt = errors.New("store: corrupt event log")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("store: closed")
	// ErrTooLarge rejects a record that would exceed the durable per-record
	// size bound before it is persisted: a record the recovery reader would
	// refuse must never reach disk, or the store becomes unopenable.
	ErrTooLarge = errors.New("store: record exceeds the size bound")
	// ErrUnknownJob reports an ID the store has never seen.
	ErrUnknownJob = errors.New("store: unknown job")
	// ErrTerminal reports a mutation of a job already in a terminal state.
	ErrTerminal = errors.New("store: job is in a terminal state")
	// ErrNotRunning reports a claim operation on a job with no active claim
	// (it was requeued, or never claimed).
	ErrNotRunning = errors.New("store: job is not running")
	// ErrWrongWorker reports a claim operation by a worker that does not
	// hold the job's claim (the job was requeued and claimed again).
	ErrWrongWorker = errors.New("store: claim held by another worker")
	// ErrNotOwner reports an Open of a directory whose single-writer flock
	// is held by another process (or another open file description in this
	// one).
	ErrNotOwner = errors.New("store: not the store owner")
)

// Store-level counters in the process-wide registry.
var (
	cReplays     = telemetry.Default.Counter("store.replays", "Boot replays of the event log.")
	cReplayedEvs = telemetry.Default.Counter("store.replayed_events", "Events folded during boot replays.")
	cEvents      = telemetry.Default.Counter("store.events", "Events appended to the log by live operations.")
	cRetries     = telemetry.Default.Counter("store.retries", "Failed attempts requeued with retries remaining.")
	cCompactions = telemetry.Default.Counter("store.compactions", "Snapshot-and-truncate compactions of the log.")
	cOrphans     = telemetry.Default.Counter("store.orphans_requeued", "Jobs found running at boot and requeued as orphans.")
	cRequeues    = telemetry.Default.Counter("store.requeues", "Requeue events for any reason (retry, orphan, release).")
	cEvictions   = telemetry.Default.Counter("store.evictions", "Terminal jobs pruned by the compaction retention bound.")
)

// Lifecycle histograms and occupancy gauges, observed on the live append path
// only: boot replay and offline validation fold events through apply alone,
// so process metrics reflect this process's traffic, not recovered history.
// The gauges are process-wide; with several stores in one process (tests) the
// last writer wins — the daemon owns exactly one store, which is the case
// they serve.
var (
	hQueueWait = telemetry.Default.Histogram("store.queue_wait_ns", "Nanoseconds jobs waited in queue before a claim.")
	hAttempt   = telemetry.Default.Histogram("store.attempt_ns", "Nanoseconds per attempt, claim to its outcome.")
	hE2E       = telemetry.Default.Histogram("store.e2e_ns", "Nanoseconds from submission to a terminal state.")
	gQueued    = telemetry.Default.Gauge("store.jobs_queued", "Retained jobs currently queued.")
	gRunning   = telemetry.Default.Gauge("store.jobs_running", "Retained jobs currently running under a claim.")
	gTerminal  = telemetry.Default.Gauge("store.jobs_terminal", "Retained jobs in a terminal state (done, failed, cancelled).")
	gLogBytes  = telemetry.Default.Gauge("store.log_bytes", "Bytes in the append-only event log.")
	gSnapBytes = telemetry.Default.Gauge("store.snapshot_bytes", "Bytes in the latest snapshot file.")
)

// State is a job's position in the claim state machine.
type State string

// Job states. Done, Failed and Cancelled are terminal and sticky.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state admits no further transitions.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event types, one per state transition. The log is the source of truth;
// every field a transition needs is carried on the event so replay is pure.
const (
	EvSubmit   = "submit"   // spec
	EvClaim    = "claim"    // worker, attempt
	EvRequeue  = "requeue"  // reason, error, not_before
	EvComplete = "complete" // worker, result
	EvFail     = "fail"     // worker, error (terminal)
	EvCancel   = "cancel"   // error
)

// Requeue reasons recorded on EvRequeue events.
const (
	ReasonRetry    = "retry"    // attempt returned an error, retries left
	ReasonOrphaned = "orphaned" // boot replay found a claim from a dead process
	ReasonReleased = "released" // claim returned at shutdown
)

// Event is one record of the append-only log.
type Event struct {
	Seq  uint64 `json:"seq"`
	TS   int64  `json:"ts"` // unix nanoseconds
	Type string `json:"type"`
	Job  string `json:"job"`

	Spec      json.RawMessage `json:"spec,omitempty"`       // submit
	Worker    string          `json:"worker,omitempty"`     // claim/complete/fail
	Attempt   int             `json:"attempt,omitempty"`    // claim
	Reason    string          `json:"reason,omitempty"`     // requeue
	NotBefore int64           `json:"not_before,omitempty"` // requeue backoff, unix nanoseconds
	Result    json.RawMessage `json:"result,omitempty"`     // complete
	Error     string          `json:"error,omitempty"`      // requeue/fail/cancel
}

// Job is the derived state of one submitted job. QueueSeq orders claims:
// submits and requeues go to the back of the ready queue, so retries cannot
// starve fresh work.
type Job struct {
	ID        string          `json:"id"`
	Spec      json.RawMessage `json:"spec,omitempty"`
	State     State           `json:"state"`
	Attempt   int             `json:"attempt"` // claims so far; monotone across restarts
	Worker    string          `json:"worker,omitempty"`
	NotBefore time.Time       `json:"not_before"` // earliest next claim (retry backoff)
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
	Created   time.Time       `json:"created"`
	Finished  time.Time       `json:"finished"`
	QueueSeq  uint64          `json:"queue_seq"`
	Timeline  []TimelineEvent `json:"timeline,omitempty"`
}

// TimelineEvent is one entry of a job's machine-readable lifecycle timeline,
// folded from the event log in apply: replay rebuilds it exactly, and
// snapshots carry it across restarts. It holds state transitions only, so
// MaxAttempts bounds its length.
type TimelineEvent struct {
	Type    string    `json:"type"`
	TS      time.Time `json:"ts"`
	Attempt int       `json:"attempt,omitempty"`
	Worker  string    `json:"worker,omitempty"`
	Reason  string    `json:"reason,omitempty"`
}

// Timeline entry types.
const (
	TLSubmitted = "submitted"
	TLClaimed   = "claimed"
	TLRequeued  = "requeued"
	TLCompleted = "completed"
	TLFailed    = "failed"
	TLCancelled = "cancelled"
)

// timelineType maps a log event type to its timeline entry type ("" for
// events that are not lifecycle transitions).
func timelineType(evType string) string {
	switch evType {
	case EvSubmit:
		return TLSubmitted
	case EvClaim:
		return TLClaimed
	case EvRequeue:
		return TLRequeued
	case EvComplete:
		return TLCompleted
	case EvFail:
		return TLFailed
	case EvCancel:
		return TLCancelled
	}
	return ""
}

// lastTimeline returns the newest timeline timestamp among types (zero time
// when the job has none).
func lastTimeline(j *Job, types ...string) time.Time {
	if j == nil {
		return time.Time{}
	}
	for i := len(j.Timeline) - 1; i >= 0; i-- {
		for _, t := range types {
			if j.Timeline[i].Type == t {
				return j.Timeline[i].TS
			}
		}
	}
	return time.Time{}
}

// Presence is the answer of Lookup: a job is known, never existed, or
// existed but was evicted (terminal-job pruning at compaction, or submitted
// to a previous incarnation whose counter survived in the snapshot).
type Presence int

// Lookup outcomes.
const (
	Unknown Presence = iota
	Found
	Evicted
)

// Options tunes a Store. The zero value is usable.
type Options struct {
	// MaxAttempts caps claims per job; the MaxAttempts-th failed or
	// orphaned attempt is terminal (default 3).
	MaxAttempts int
	// BackoffBase is the requeue delay after the first failed attempt
	// (default 250ms), doubling per attempt up to BackoffMax (default 30s),
	// plus up to 50% jitter.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed seeds the jitter source (0 = fixed default). The resolved delay
	// is recorded on the requeue event, so replay is exact regardless.
	Seed int64
	// CompactEvery triggers a snapshot + log truncation after this many
	// appended events (default 4096; file-backed stores only).
	CompactEvery int
	// RetainTerminal bounds the terminal jobs kept across compactions;
	// beyond it the oldest-finished are evicted (default 4096).
	RetainTerminal int
	// NoSync disables the per-append fsync (tests/benchmarks only).
	NoSync bool
	// Now injects a clock for tests (default time.Now).
	Now func() time.Time
}

func (o Options) defaults() Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 250 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 30 * time.Second
	}
	if o.CompactEvery <= 0 {
		o.CompactEvery = 4096
	}
	if o.RetainTerminal <= 0 {
		o.RetainTerminal = 4096
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Store is the service's job store: an event-sourced job table over a
// write-ahead log. Create with NewMemory or Open.
type Store struct {
	mu     sync.Mutex
	opt    Options
	wal    wal
	jobs   map[string]*Job
	counts map[State]int // retained jobs per state, maintained by apply
	seq    uint64        // last appended event seq
	nextID uint64        // last assigned numeric job ID
	since  int           // events appended since the last snapshot
	rng    *rand.Rand
	closed bool

	changed   chan struct{} // closed at the next live change; nil until Changed asks
	evictions int           // jobs evicted so far (see Evictions)
}

// NewMemory returns a Store with no durable backing: state lives (and dies)
// with the process. The production file-backed store is returned by Open.
func NewMemory(opt Options) *Store {
	s, _ := newStore(memWAL{}, opt)
	return s
}

func newStore(w wal, opt Options) (*Store, error) {
	opt = opt.defaults()
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	return &Store{
		opt:    opt,
		wal:    w,
		jobs:   map[string]*Job{},
		counts: map[State]int{},
		rng:    rand.New(rand.NewSource(seed)),
	}, nil
}

func (s *Store) now() time.Time { return s.opt.Now() }

// append assigns the next seq, persists the event, then applies it. The
// pre-checks in each operation guarantee apply cannot fail on a live store;
// a failure here means the process state diverged from the log and is fatal
// to the operation.
func (s *Store) append(ev Event) error {
	ev.Seq = s.seq + 1
	ev.TS = s.now().UnixNano()
	rec, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("store: encoding event: %w", err)
	}
	// Write-side mirror of the read-side maxRecord check: an event the
	// recovery reader would reject as corrupt is refused here, before it is
	// persisted or applied, so the log stays replayable.
	if len(rec) > int(maxRecord) {
		return fmt.Errorf("%s event for job %s is %d bytes (max %d): %w",
			ev.Type, ev.Job, len(rec), maxRecord, ErrTooLarge)
	}
	if err := s.wal.Append(rec); err != nil {
		return fmt.Errorf("store: appending event: %w", err)
	}
	s.seq = ev.Seq
	cEvents.Inc()
	// Observe against the pre-apply state: queue-wait and attempt durations
	// need the job as it was before this transition mutates it.
	s.observeLocked(ev)
	if err := s.apply(ev); err != nil {
		return err
	}
	// Changed waiters wake only on this live path: replay and validation
	// fold through apply alone.
	s.signalLocked()
	s.since++
	if s.since >= s.opt.CompactEvery {
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	s.publishGaugesLocked()
	return nil
}

// observeLocked records live-traffic lifecycle metrics for ev, reading the
// job's pre-apply state. Durations come from the persisted timeline, so they
// are exact across restarts (a job submitted to a previous incarnation still
// reports its true end-to-end latency).
func (s *Store) observeLocked(ev Event) {
	j := s.jobs[ev.Job]
	if j == nil {
		return
	}
	switch ev.Type {
	case EvClaim:
		if ts := lastTimeline(j, TLSubmitted, TLRequeued); !ts.IsZero() {
			hQueueWait.Observe(ev.TS - ts.UnixNano())
		}
	case EvRequeue:
		cRequeues.Inc()
		if ts := lastTimeline(j, TLClaimed); !ts.IsZero() {
			hAttempt.Observe(ev.TS - ts.UnixNano())
		}
	case EvComplete, EvFail, EvCancel:
		if j.State == StateRunning {
			if ts := lastTimeline(j, TLClaimed); !ts.IsZero() {
				hAttempt.Observe(ev.TS - ts.UnixNano())
			}
		}
		if !j.Created.IsZero() {
			hE2E.Observe(ev.TS - j.Created.UnixNano())
		}
	}
}

// publishGaugesLocked refreshes the occupancy and size gauges from the counts
// cache and the backing log.
func (s *Store) publishGaugesLocked() {
	gQueued.Set(int64(s.counts[StateQueued]))
	gRunning.Set(int64(s.counts[StateRunning]))
	gTerminal.Set(int64(s.counts[StateDone] + s.counts[StateFailed] + s.counts[StateCancelled]))
	logB, snapB := s.wal.Size()
	gLogBytes.Set(logB)
	gSnapBytes.Set(snapB)
}

// apply folds one event into the derived job table. It is the single
// transition function shared by live operations, boot replay and offline
// validation, so an event sequence that replays is by construction one the
// live store could have produced.
func (s *Store) apply(ev Event) error {
	if ev.Job == "" {
		return fmt.Errorf("%w: %s event (seq %d) without a job ID", ErrCorrupt, ev.Type, ev.Seq)
	}
	j := s.jobs[ev.Job]
	if ev.Type != EvSubmit {
		if j == nil {
			return fmt.Errorf("%w: %s event (seq %d) for unknown job %s", ErrCorrupt, ev.Type, ev.Seq, ev.Job)
		}
		if j.State.Terminal() {
			return fmt.Errorf("%w: %s event (seq %d) for terminal job %s", ErrCorrupt, ev.Type, ev.Seq, ev.Job)
		}
	}
	var prev State
	if j != nil {
		prev = j.State
	}
	switch ev.Type {
	case EvSubmit:
		if j != nil {
			return fmt.Errorf("%w: duplicate submit (seq %d) for job %s", ErrCorrupt, ev.Seq, ev.Job)
		}
		s.jobs[ev.Job] = &Job{
			ID:       ev.Job,
			Spec:     ev.Spec,
			State:    StateQueued,
			Created:  time.Unix(0, ev.TS),
			QueueSeq: ev.Seq,
		}
		if n, ok := jobNum(ev.Job); ok && n > s.nextID {
			s.nextID = n
		}
	case EvClaim:
		if j.State != StateQueued {
			return fmt.Errorf("%w: claim (seq %d) of %s job %s", ErrCorrupt, ev.Seq, j.State, ev.Job)
		}
		if ev.Attempt != j.Attempt+1 {
			return fmt.Errorf("%w: claim (seq %d) of job %s has attempt %d, want %d (retry counts are monotone)",
				ErrCorrupt, ev.Seq, ev.Job, ev.Attempt, j.Attempt+1)
		}
		j.State = StateRunning
		j.Worker = ev.Worker
		j.Attempt = ev.Attempt
	case "checkpoint_ref", "renew":
		// Older builds wrote these: "checkpoint_ref" recorded the attempt
		// journal at every checkpoint, "renew" a lease renewal. Replay
		// accepts both, under the same checks, as no-ops so their store
		// directories still open.
		if j.State != StateRunning {
			return fmt.Errorf("%w: %s (seq %d) of %s job %s", ErrCorrupt, ev.Type, ev.Seq, j.State, ev.Job)
		}
		if ev.Worker != j.Worker {
			return fmt.Errorf("%w: %s (seq %d) of job %s by %q, claim held by %q",
				ErrCorrupt, ev.Type, ev.Seq, ev.Job, ev.Worker, j.Worker)
		}
	case EvRequeue:
		if j.State != StateRunning {
			return fmt.Errorf("%w: requeue (seq %d) of %s job %s", ErrCorrupt, ev.Seq, j.State, ev.Job)
		}
		j.State = StateQueued
		j.Worker = ""
		j.NotBefore = time.Unix(0, ev.NotBefore)
		j.QueueSeq = ev.Seq
		j.Error = ev.Error
	case EvComplete:
		if j.State != StateRunning || ev.Worker != j.Worker {
			return fmt.Errorf("%w: complete (seq %d) of job %s (state %s, claim %q, event worker %q)",
				ErrCorrupt, ev.Seq, ev.Job, j.State, j.Worker, ev.Worker)
		}
		j.State = StateDone
		j.Result = ev.Result
		j.Error = ""
		j.Worker = ""
		j.Finished = time.Unix(0, ev.TS)
	case EvFail:
		if j.State != StateRunning || ev.Worker != j.Worker {
			return fmt.Errorf("%w: fail (seq %d) of job %s (state %s, claim %q, event worker %q)",
				ErrCorrupt, ev.Seq, ev.Job, j.State, j.Worker, ev.Worker)
		}
		j.State = StateFailed
		j.Error = ev.Error
		j.Worker = ""
		j.Finished = time.Unix(0, ev.TS)
	case EvCancel:
		j.State = StateCancelled
		j.Error = ev.Error
		j.Worker = ""
		j.Finished = time.Unix(0, ev.TS)
	default:
		return fmt.Errorf("%w: unknown event type %q (seq %d)", ErrCorrupt, ev.Type, ev.Seq)
	}
	cur := s.jobs[ev.Job]
	if prev != cur.State {
		if prev != "" {
			s.counts[prev]--
		}
		s.counts[cur.State]++
	}
	if tl := timelineType(ev.Type); tl != "" {
		cur.Timeline = append(cur.Timeline, TimelineEvent{
			Type:    tl,
			TS:      time.Unix(0, ev.TS),
			Attempt: cur.Attempt,
			Worker:  ev.Worker,
			Reason:  ev.Reason,
		})
	}
	return nil
}

// Submit appends a new queued job with the next sequential ID.
func (s *Store) Submit(spec json.RawMessage) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Job{}, ErrClosed
	}
	id := "job-" + strconv.FormatUint(s.nextID+1, 10)
	if err := s.append(Event{Type: EvSubmit, Job: id, Spec: spec}); err != nil {
		return Job{}, err
	}
	return *s.jobs[id], nil
}

// Lookup resolves id. An ID below the persisted submission counter that is
// no longer in the table was evicted (compaction pruned it, or it completed
// before a restart that kept the counter but not the job); an ID above it
// was never submitted.
func (s *Store) Lookup(id string) (Job, Presence) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil {
		return *j, Found
	}
	if n, ok := jobNum(id); ok && n <= s.nextID {
		return Job{}, Evicted
	}
	return Job{}, Unknown
}

// List returns every retained job, ordered by numeric ID.
func (s *Store) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
	}
	sortJobsByID(out)
	return out
}

// sortJobsByID orders jobs by numeric ID (lexical tiebreak).
func sortJobsByID(out []Job) {
	sort.Slice(out, func(i, k int) bool {
		ni, _ := jobNum(out[i].ID)
		nk, _ := jobNum(out[k].ID)
		if ni != nk {
			return ni < nk
		}
		return out[i].ID < out[k].ID
	})
}

// Counts returns retained jobs per state. O(1) in the job count: the totals
// are maintained incrementally by apply (the submit admission check calls
// this on every request).
func (s *Store) Counts() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[State]int, len(s.counts))
	for st, n := range s.counts {
		if n > 0 {
			m[st] = n
		}
	}
	return m
}

// Claim hands worker the ready queued job with the smallest QueueSeq — FIFO
// over submits and requeues, so a retried job rejoins behind work that was
// already waiting.
func (s *Store) Claim(worker string) (Job, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Job{}, false, ErrClosed
	}
	now := s.now()
	var best *Job
	for _, j := range s.jobs {
		if j.State != StateQueued || j.NotBefore.After(now) {
			continue
		}
		if best == nil || j.QueueSeq < best.QueueSeq {
			best = j
		}
	}
	if best == nil {
		return Job{}, false, nil
	}
	ev := Event{
		Type:    EvClaim,
		Job:     best.ID,
		Worker:  worker,
		Attempt: best.Attempt + 1,
	}
	if err := s.append(ev); err != nil {
		return Job{}, false, err
	}
	return *best, true, nil
}

// claimCheck validates an operation by worker on id's claim without
// mutating. Callers hold s.mu.
func (s *Store) claimCheck(id, worker string) (*Job, error) {
	if s.closed {
		return nil, ErrClosed
	}
	j := s.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.State.Terminal() {
		return nil, fmt.Errorf("job %s is %s: %w", id, j.State, ErrTerminal)
	}
	if j.State != StateRunning {
		return nil, fmt.Errorf("job %s: %w", id, ErrNotRunning)
	}
	if j.Worker != worker {
		return nil, fmt.Errorf("job %s held by %q, not %q: %w", id, j.Worker, worker, ErrWrongWorker)
	}
	return j, nil
}

// Complete records the attempt's terminal result.
func (s *Store) Complete(id, worker string, result json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.claimCheck(id, worker)
	if err != nil {
		return err
	}
	return s.append(Event{Type: EvComplete, Job: j.ID, Worker: worker, Result: result})
}

// Fail records a failed attempt: requeue with jittered exponential backoff
// while attempts remain, terminal failure at the MaxAttempts cap.
func (s *Store) Fail(id, worker, msg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.claimCheck(id, worker)
	if err != nil {
		return err
	}
	if j.Attempt >= s.opt.MaxAttempts {
		return s.append(Event{Type: EvFail, Job: j.ID, Worker: worker,
			Error: fmt.Sprintf("%s; %d/%d attempts exhausted", msg, j.Attempt, s.opt.MaxAttempts)})
	}
	cRetries.Inc()
	return s.append(Event{Type: EvRequeue, Job: j.ID, Reason: ReasonRetry, Error: msg,
		NotBefore: s.now().Add(s.backoff(j.Attempt)).UnixNano()})
}

// FailTerminal fails the job immediately, retries notwithstanding.
func (s *Store) FailTerminal(id, worker, msg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.claimCheck(id, worker)
	if err != nil {
		return err
	}
	return s.append(Event{Type: EvFail, Job: j.ID, Worker: worker, Error: msg})
}

// Release returns an unexecuted claim to the queue: no backoff, but the job
// rejoins at the back like any requeue.
func (s *Store) Release(id, worker string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.claimCheck(id, worker)
	if err != nil {
		return err
	}
	return s.append(Event{Type: EvRequeue, Job: j.ID, Reason: ReasonReleased, NotBefore: s.now().UnixNano()})
}

// Cancel terminally cancels a queued or running job. The caller owns
// interrupting the worker; a late Complete/Fail from it is rejected by the
// sticky terminal state.
func (s *Store) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	j := s.jobs[id]
	if j == nil {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.State.Terminal() {
		return fmt.Errorf("job %s is %s: %w", id, j.State, ErrTerminal)
	}
	return s.append(Event{Type: EvCancel, Job: j.ID, Error: "cancelled by request"})
}

// backoff computes the delay after the attempt-th failure: base·2^(attempt-1)
// capped at max, plus up to 50% jitter. The resolved value is persisted on
// the requeue event, so replay does not re-roll the dice.
func (s *Store) backoff(attempt int) time.Duration {
	d := s.opt.BackoffBase << uint(attempt-1)
	if d <= 0 || d > s.opt.BackoffMax {
		d = s.opt.BackoffMax
	}
	return d + time.Duration(s.rng.Int63n(int64(d)/2+1))
}

// requeueOrphansLocked handles boot recovery's running jobs: their workers
// died with the previous process, so each is requeued immediately (no
// backoff — the daemon crashed, not the job) or terminally failed when its
// attempts are already spent.
func (s *Store) requeueOrphansLocked() error {
	var orphans []*Job
	for _, j := range s.jobs {
		if j.State == StateRunning {
			orphans = append(orphans, j)
		}
	}
	sort.Slice(orphans, func(i, k int) bool { return orphans[i].QueueSeq < orphans[k].QueueSeq })
	for _, j := range orphans {
		cOrphans.Inc()
		if j.Attempt >= s.opt.MaxAttempts {
			if err := s.append(Event{Type: EvFail, Job: j.ID, Worker: j.Worker,
				Error: fmt.Sprintf("orphaned by restart; %d/%d attempts exhausted", j.Attempt, s.opt.MaxAttempts)}); err != nil {
				return err
			}
			continue
		}
		if err := s.append(Event{Type: EvRequeue, Job: j.ID, Reason: ReasonOrphaned,
			Error:     fmt.Sprintf("orphaned by restart during attempt %d", j.Attempt),
			NotBefore: s.now().UnixNano()}); err != nil {
			return err
		}
	}
	return nil
}

// CompactNow forces a snapshot + log truncation (normally triggered every
// CompactEvery events).
func (s *Store) CompactNow() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	// Evict the oldest terminal jobs beyond the retention bound before the
	// state is frozen into the snapshot.
	var terminal []*Job
	for _, j := range s.jobs {
		if j.State.Terminal() {
			terminal = append(terminal, j)
		}
	}
	sort.Slice(terminal, func(i, k int) bool {
		if !terminal[i].Finished.Equal(terminal[k].Finished) {
			return terminal[i].Finished.Before(terminal[k].Finished)
		}
		return terminal[i].QueueSeq < terminal[k].QueueSeq
	})
	if excess := len(terminal) - s.opt.RetainTerminal; excess > 0 {
		for _, j := range terminal[:excess] {
			s.evictLocked(j)
		}
		terminal = terminal[excess:]
	}
	snap, err := json.Marshal(s.snapshotLocked())
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	// Write-side mirror of the read-side maxSnapshot check: a snapshot the
	// recovery reader would reject as corrupt must never be written, or the
	// store becomes permanently unopenable. Terminal jobs are expendable
	// (oldest evicted first, halving until the snapshot fits); live jobs are
	// not, so if they alone exceed the bound the compaction fails with the
	// log intact rather than poisoning the snapshot.
	for len(snap) > int(maxSnapshot) {
		if len(terminal) == 0 {
			return fmt.Errorf("store: snapshot is %d bytes (max %d) with only live jobs left: %w",
				len(snap), maxSnapshot, ErrTooLarge)
		}
		half := (len(terminal) + 1) / 2
		for _, j := range terminal[:half] {
			s.evictLocked(j)
		}
		terminal = terminal[half:]
		if snap, err = json.Marshal(s.snapshotLocked()); err != nil {
			return fmt.Errorf("store: encoding snapshot: %w", err)
		}
	}
	if err := s.wal.Compact(snap); err != nil {
		return fmt.Errorf("store: compacting: %w", err)
	}
	s.since = 0
	cCompactions.Inc()
	return nil
}

// evictLocked removes a terminal job from the retained table (compaction's
// retention bound) and wakes Changed waiters. Callers hold s.mu.
func (s *Store) evictLocked(j *Job) {
	delete(s.jobs, j.ID)
	s.counts[j.State]--
	s.evictions++
	cEvictions.Inc()
	s.signalLocked()
}

func (s *Store) snapshotLocked() snapshot {
	jobs := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, *j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].QueueSeq < jobs[k].QueueSeq })
	return snapshot{V: snapshotVersion, LastSeq: s.seq, NextID: s.nextID, Jobs: jobs}
}

// Close releases the backing log (and its lock file) and wakes every
// Changed waiter.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.signalLocked()
	return s.wal.Close()
}

// jobNum extracts the numeric suffix of a "job-N" ID.
func jobNum(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	return n, err == nil
}
