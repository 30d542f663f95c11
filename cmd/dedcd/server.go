package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dedc/internal/bench"
	"dedc/internal/cache"
	"dedc/internal/circuit"
	"dedc/internal/diagnose"
	"dedc/internal/store"
	"dedc/internal/telemetry"
	"dedc/internal/tpg"
)

// HTTP-layer counters: what the service accepted vs shed at admission.
var (
	cSubmissions = telemetry.Default.Counter("dedcd.submissions", "Jobs accepted by POST /v1/jobs.")
	cSheds       = telemetry.Default.Counter("dedcd.sheds", "Submissions shed with 503 at the admission cap.")
)

// maxListPage bounds one GET /v1/jobs page regardless of the requested limit.
const maxListPage = 1000

// jobRequest is the submission body of POST /v1/jobs: netlists travel inline
// as .bench text, so the service holds no filesystem state beyond the store.
type jobRequest struct {
	// Impl is the netlist to diagnose/repair (.bench text, required).
	Impl string `json:"impl"`
	// Spec is the golden specification (.bench text) for DEDC mode; Device
	// the faulty device for stuck-at mode. Exactly one must be set.
	Spec   string `json:"spec,omitempty"`
	Device string `json:"device,omitempty"`
	// Random/Seed control generated vectors (defaults 1024 / 1).
	Random int   `json:"random,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
	// MaxErrors bounds the correction-set size (default 4).
	MaxErrors int `json:"max_errors,omitempty"`
	// NoVerify disables the verified-results gate (on by default).
	NoVerify bool `json:"no_verify,omitempty"`
}

// jobResult is the terminal payload of GET /v1/jobs/{id}/result.
type jobResult struct {
	Mode        string         `json:"mode"` // "repair" or "stuckat"
	Status      string         `json:"status"`
	Solved      bool           `json:"solved"`
	Corrections []string       `json:"corrections,omitempty"` // repair mode
	Tuples      [][]string     `json:"tuples,omitempty"`      // stuckat mode
	Repaired    string         `json:"repaired,omitempty"`    // .bench text
	Verified    int            `json:"verified"`
	Resumed     bool           `json:"resumed,omitempty"` // attempt resumed a prior checkpoint
	Stats       diagnose.Stats `json:"stats"`
}

// runEnv carries the per-attempt execution context a worker provides.
type runEnv struct {
	Resume *diagnose.Checkpoint // earlier attempt's checkpoint (nil = fresh run)
	// Cache, when non-nil and enabled, lets the attempt reuse parsed
	// netlists and ATPG vector sets across jobs sharing a circuit
	// (-cache-bytes). A nil pipeline recomputes everything.
	Cache *cache.Pipeline
	// Workers is the attempt's diagnose.Options.Workers (-sim-workers);
	// 0 selects GOMAXPROCS.
	Workers int
}

// runner executes one diagnosis attempt; the indirection lets tests inject
// hanging or panicking jobs without forging netlists that crash the engine.
type runner func(ctx context.Context, req jobRequest, env runEnv) (*jobResult, error)

// jobView is the status representation of GET /v1/jobs[/{id}]. The lifecycle
// timeline rides on single-job lookups only (list pages stay lean).
type jobView struct {
	ID       string                `json:"id"`
	State    string                `json:"state"`
	Attempt  int                   `json:"attempt"`
	Error    string                `json:"error,omitempty"`
	HasRes   bool                  `json:"has_result"`
	Timeline []store.TimelineEvent `json:"timeline,omitempty"`
}

func viewOf(j store.Job) jobView {
	return jobView{ID: j.ID, State: string(j.State), Attempt: j.Attempt,
		Error: j.Error, HasRes: len(j.Result) > 0}
}

// detailOf is viewOf plus the machine-readable lifecycle timeline.
func detailOf(j store.Job) jobView {
	v := viewOf(j)
	v.Timeline = j.Timeline
	return v
}

// server is the stateless HTTP layer of the diagnosis service: every job
// fact lives in the store (durable when file-backed), and jobs run on the
// worker loops in dispatch.go. The process can be killed at any instant and
// a restart resumes the whole workload.
type server struct {
	st  *store.Store
	log *slog.Logger
	run runner

	baseCtx context.Context // process job lifetime: shutdown cancels attempts

	// workers is the number of worker loops (-workers); jobTimeout is each
	// attempt's deadline (-job-timeout, 0 = none).
	workers    int
	jobTimeout time.Duration
	loops      sync.WaitGroup     // the running worker loops
	stopClaims context.CancelFunc // ends the worker loops' claiming (drain)

	// Attempt counts for poolStats; busy is the number of workers running an
	// attempt.
	busy, submitted, completed, failed, panics atomic.Int64

	// worker is the base claim identity of this process; every claim extends
	// it with a per-claim nonce (claimToken), so a stale attempt whose job
	// this same process re-claimed can never pass the store's claim check
	// and settle its successor's claim.
	worker string
	claims atomic.Uint64

	// journalDir, when set, gives every attempt its own run journal
	// (<dir>/<id>.a<attempt>.jsonl) with flush-on-checkpoint semantics, so a
	// checkpoint survives the death of the process (not a power loss). A
	// requeued job resumes from the last checkpoint of its newest earlier
	// attempt journal instead of restarting.
	journalDir string

	// simWorkers is every job's Options.Workers (-sim-workers): the
	// goroutines its verification gate's re-simulation shards across.
	simWorkers int

	// cache is the shared content-addressed parse/ATPG cache (-cache-bytes);
	// nil or disabled means every attempt recomputes from scratch.
	cache *cache.Pipeline

	// maxQueued is the admission cap: submissions beyond this many queued
	// jobs are shed with 503 (the durable queue is the backpressure
	// boundary).
	maxQueued int

	// retryBackoff feeds the 503 Retry-After estimate: how long one queue
	// "generation" takes to drain ahead of a shed submission.
	retryBackoff time.Duration

	wake chan struct{} // wakes an idle worker after a submit, a requeue or a claim

	// streamHeartbeat is the idle SSE stream comment interval (see
	// events.go; 0 = defaultHeartbeat; tests shrink it).
	streamHeartbeat time.Duration

	// ready/draining back /readyz: ready flips on once the workers are
	// live, draining flips on at the first shutdown signal.
	ready    atomic.Bool
	draining atomic.Bool

	mu      sync.Mutex
	running map[string]*attempt // attempts executing in this process, by job ID
}

// attempt is one claim executing in this process. The pointer is the
// attempt's identity: cleanup removes the map entry only if it still holds
// this exact attempt, so a stale attempt unwinding late cannot unregister
// the successor that re-claimed the same job.
type attempt struct {
	cancel context.CancelFunc
}

// newServer builds a server whose jobs run on workers worker loops (4 when
// workers <= 0) once start is called.
func newServer(log *slog.Logger, st *store.Store, workers int) *server {
	if workers <= 0 {
		workers = 4
	}
	s := &server{
		st:           st,
		log:          log,
		baseCtx:      context.Background(),
		worker:       fmt.Sprintf("dedcd-%d", os.Getpid()),
		simWorkers:   telemetry.DefaultWorkers(),
		maxQueued:    1024,
		retryBackoff: 250 * time.Millisecond,
		workers:      workers,
		wake:         make(chan struct{}, 1),
		running:      map[string]*attempt{},
	}
	s.run = func(ctx context.Context, req jobRequest, env runEnv) (*jobResult, error) {
		env.Workers = s.simWorkers
		env.Cache = s.cache
		return runDiagnosis(ctx, req, env)
	}
	return s
}

// start launches the worker loops and the eviction watch. ctx bounds both
// and every attempt's lifetime (shutdown cancellation); drain ends the
// workers' claiming earlier. After start, /readyz reports ready.
func (s *server) start(ctx context.Context) {
	s.baseCtx = ctx
	claimCtx, stopClaims := context.WithCancel(ctx)
	s.stopClaims = stopClaims
	// Read the eviction count before the sweep, so a job evicted after it
	// moves the count past the one watchEvictions starts from.
	evicted := s.st.Evictions()
	s.sweepJournals()
	s.loops.Add(s.workers)
	for i := 0; i < s.workers; i++ {
		go s.work(claimCtx)
	}
	go s.watchEvictions(ctx, evicted)
	s.ready.Store(true)
}

// handler builds the service mux on top of the standard telemetry debug mux,
// so /metrics and /debug/pprof ride along on the same listener.
func (s *server) handler(reg *telemetry.Registry) http.Handler {
	mux := telemetry.DebugMux(reg)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"ok": true, "pool": s.poolStats(), "jobs": s.st.Counts(),
		})
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	// Admission control: the durable queue is the bounded buffer now, and
	// 503 + Retry-After remains the backpressure contract.
	if queued := s.st.Counts()[store.StateQueued]; s.maxQueued > 0 && queued >= s.maxQueued {
		cSheds.Inc()
		w.Header().Set("Retry-After", s.retryAfter(queued))
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("job queue is full (%d queued)", s.maxQueued))
		return
	}
	spec, err := json.Marshal(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.st.Submit(spec)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	cSubmissions.Inc()
	s.kick()
	s.log.Info("job accepted", "id", j.ID)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.ID})
}

// retryAfter estimates when queue pressure may have eased: the retry backoff
// (one queue "generation" of healing time) scaled by how many worker-widths
// of work sit ahead of a new submission, clamped to [1s, 5m], in whole
// seconds.
func (s *server) retryAfter(queued int) string {
	est := s.retryBackoff * time.Duration(1+queued/s.workers)
	if est < time.Second {
		est = time.Second
	}
	if est > 5*time.Minute {
		est = 5 * time.Minute
	}
	return strconv.Itoa(int((est + time.Second - 1) / time.Second))
}

// handleList enumerates retained jobs, optionally filtered by ?state= and
// paged by ?limit= (capped at maxListPage). "total" counts every match so a
// truncated page is detectable.
func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var filter store.State
	if v := q.Get("state"); v != "" {
		switch st := store.State(v); st {
		case store.StateQueued, store.StateRunning, store.StateDone, store.StateFailed, store.StateCancelled:
			filter = st
		default:
			writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown state %q", v))
			return
		}
	}
	limit := maxListPage
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("limit must be a positive integer, got %q", v))
			return
		}
		if n < limit {
			limit = n
		}
	}
	jobs := s.st.List()
	views := make([]jobView, 0, min(len(jobs), limit))
	total := 0
	for _, j := range jobs {
		if filter != "" && j.State != filter {
			continue
		}
		total++
		if len(views) < limit {
			views = append(views, viewOf(j))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views, "total": total, "pool": s.poolStats()})
}

// lookup resolves the request's job ID, writing the 404/410 distinction the
// store makes possible: an ID that was never submitted is unknown; one below
// the persisted submission counter existed and was evicted (terminal-job
// pruning at compaction).
func (s *server) lookup(w http.ResponseWriter, r *http.Request) (store.Job, bool) {
	id := r.PathValue("id")
	j, p := s.st.Lookup(id)
	switch p {
	case store.Found:
		return j, true
	case store.Evicted:
		writeErr(w, http.StatusGone, fmt.Errorf("job %q was evicted (retention window passed)", id))
	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
	}
	return store.Job{}, false
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, detailOf(j))
	}
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	switch j.State {
	case store.StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(j.Result)
	case store.StateQueued, store.StateRunning:
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s", j.ID, j.State))
	default:
		writeJSON(w, http.StatusOK, map[string]string{"state": string(j.State), "error": j.Error})
	}
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	// Record the cancel first (terminal, sticky), then interrupt the attempt
	// if this process is executing it; a late Complete/Fail from the worker
	// is rejected by the terminal state.
	if err := s.st.Cancel(j.ID); err != nil && !errors.Is(err, store.ErrTerminal) {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.cancelRunning(j.ID)
	cur, _ := s.st.Lookup(j.ID)
	writeJSON(w, http.StatusOK, viewOf(cur))
}

// kick wakes one idle worker, if any, without blocking.
func (s *server) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// cancelRunning interrupts the attempt currently executing job id in this
// process, if any.
func (s *server) cancelRunning(id string) {
	s.mu.Lock()
	att := s.running[id]
	s.mu.Unlock()
	if att != nil {
		att.cancel()
	}
}

// claimToken mints the identity of one claim: the process identity plus a
// per-claim nonce. Claim identities must be unique per attempt, not per
// process — the store's claim check compares worker strings, and a process
// can legally re-claim a job whose earlier attempt it still hosts.
func (s *server) claimToken() string {
	return fmt.Sprintf("%s.c%d", s.worker, s.claims.Add(1))
}

// runDiagnosis is the production runner: parse the inline netlists, build
// vectors, run the engine — resuming from an earlier attempt's checkpoint
// when the worker found one.
func runDiagnosis(ctx context.Context, req jobRequest, env runEnv) (*jobResult, error) {
	if req.Impl == "" {
		return nil, errors.New("impl netlist is required")
	}
	if (req.Spec == "") == (req.Device == "") {
		return nil, errors.New("exactly one of spec (repair) or device (stuckat) is required")
	}
	impl, err := env.Cache.ParseBench(req.Impl)
	if err != nil {
		return nil, fmt.Errorf("impl: %w", err)
	}
	refText, mode := req.Spec, "repair"
	if req.Device != "" {
		refText, mode = req.Device, "stuckat"
	}
	ref, err := env.Cache.ParseBench(refText)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", mode, err)
	}
	if len(impl.PIs) != len(ref.PIs) || len(impl.POs) != len(ref.POs) {
		return nil, fmt.Errorf("interface mismatch: %d/%d PIs, %d/%d POs",
			len(impl.PIs), len(ref.PIs), len(impl.POs), len(ref.POs))
	}
	random := req.Random
	if random <= 0 {
		random = 1024
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	maxErrors := req.MaxErrors
	if maxErrors <= 0 {
		maxErrors = 4
	}
	vecs := env.Cache.Vectors(ctx, impl, tpg.Options{Random: random, Seed: seed, Deterministic: true})
	refOut := diagnose.DeviceOutputs(ref, vecs.PI, vecs.N)
	opt := diagnose.Options{MaxErrors: maxErrors, NoVerify: req.NoVerify, Seed: seed,
		Workers: env.Workers}

	if mode == "stuckat" {
		if env.Resume != nil {
			res, rerr := diagnose.ResumeStuckAtFromCheckpoint(ctx, impl, refOut, vecs.PI, vecs.N, opt, env.Resume)
			if rerr == nil {
				out := stuckAtOut(impl, res)
				out.Resumed = true
				return out, nil
			}
			if ctx.Err() != nil {
				return nil, rerr
			}
			// The checkpoint did not replay (mismatched config or inputs):
			// resume is an optimization, so the attempt restarts fresh.
		}
		res, err := diagnose.DiagnoseStuckAtContext(ctx, impl, refOut, vecs.PI, vecs.N, opt)
		if err != nil {
			return nil, err
		}
		return stuckAtOut(impl, res), nil
	}

	if env.Resume != nil {
		rep, rerr := diagnose.ResumeRepairFromCheckpoint(ctx, impl, refOut, vecs.PI, vecs.N, opt, env.Resume)
		if rerr == nil {
			out, oerr := repairOut(rep)
			if oerr != nil {
				return nil, oerr
			}
			out.Resumed = true
			return out, nil
		}
		if ctx.Err() != nil {
			return nil, rerr
		}
	}
	rep, err := diagnose.RepairContext(ctx, impl, refOut, vecs.PI, vecs.N, opt)
	if err != nil {
		return nil, err
	}
	return repairOut(rep)
}

// stuckAtOut converts a stuck-at engine result to the wire form.
func stuckAtOut(impl *circuit.Circuit, res *diagnose.StuckAtResult) *jobResult {
	out := &jobResult{
		Mode:     "stuckat",
		Status:   res.Status.String(),
		Solved:   res.Status.Solved() && len(res.Tuples) > 0,
		Verified: res.Stats.Verified,
		Stats:    res.Stats,
	}
	for _, tu := range res.Tuples {
		names := make([]string, len(tu))
		for i, f := range tu {
			names[i] = fmt.Sprintf("%s/%d", f.Site.Name(impl), b2i(f.Value))
		}
		out.Tuples = append(out.Tuples, names)
	}
	return out
}

// repairOut converts a repair engine result to the wire form.
func repairOut(rep *diagnose.RepairResult) (*jobResult, error) {
	out := &jobResult{
		Mode:     "repair",
		Status:   rep.Status.String(),
		Solved:   rep.Solved(),
		Verified: rep.Stats.Verified,
		Stats:    rep.Stats,
	}
	for _, c := range rep.Corrections {
		out.Corrections = append(out.Corrections, c.String())
	}
	if rep.Repaired != nil {
		var sb strings.Builder
		if err := bench.Write(&sb, rep.Repaired); err != nil {
			return nil, err
		}
		out.Repaired = sb.String()
	}
	return out, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
