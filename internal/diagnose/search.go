package diagnose

import (
	"context"
	"math/bits"
	"sort"
	"strings"
	"time"

	"dedc/internal/circuit"
	"dedc/internal/errmodel"
	"dedc/internal/pathtrace"
	"dedc/internal/sim"
	"dedc/internal/telemetry"
)

// Run rectifies netlist against the reference primary-output responses
// specOut (rows in netlist PO order) over the n patterns in pi, drawing
// corrections from model. The netlist itself is not modified.
func Run(netlist *circuit.Circuit, specOut [][]uint64, pi [][]uint64, n int, model Model, opt Options) *Result {
	return RunContext(context.Background(), netlist, specOut, pi, n, model, opt)
}

// RunContext is Run under a context: cancellation and deadline expiry are
// observed at bounded intervals inside the decision-tree traversal and the
// per-node diagnosis/correction loops, unwinding cleanly with the solutions
// found so far and Result.Status explaining the stop.
func RunContext(ctx context.Context, netlist *circuit.Circuit, specOut [][]uint64, pi [][]uint64, n int, model Model, opt Options) *Result {
	res, _ := runSearch(ctx, netlist, specOut, pi, n, model, opt, nil)
	return res
}

// runSearch is the shared body of RunContext and ResumeFromJournal. A non-nil
// checkpoint restores the crashed run's state (solutions, frontier, dedup set,
// budget accounting) before the schedule loop continues from the checkpointed
// step; the only error source is a checkpoint that does not replay against
// these inputs.
func runSearch(ctx context.Context, netlist *circuit.Circuit, specOut [][]uint64, pi [][]uint64, n int, model Model, opt Options, cp *Checkpoint) (*Result, error) {
	return newRunState(ctx, netlist, specOut, pi, n, model, opt).run(cp)
}

// newRunState prepares a run: options completed, metric handles resolved,
// trial scratch rows allocated.
func newRunState(ctx context.Context, netlist *circuit.Circuit, specOut [][]uint64, pi [][]uint64, n int, model Model, opt Options) *runState {
	opt = opt.defaults()
	r := &runState{
		ctx:     ctx,
		base:    netlist,
		specOut: specOut,
		pi:      pi,
		n:       n,
		w:       sim.Words(n),
		model:   model,
		opt:     opt,
		res:     &Result{},
		tr:      telemetry.FromContext(ctx),
		lazy:    !opt.Exact,
	}
	r.instrument()
	r.rows = newTrialRows(r.w)
	return r
}

// run traverses the schedule, from the checkpoint when cp is non-nil.
func (r *runState) run(cp *Checkpoint) (*Result, error) {
	opt, tr := r.opt, r.tr
	ctx, runSpan := tr.StartSpan(r.ctx, "run",
		telemetry.Int("lines", r.base.NumLines()),
		telemetry.Int("n", r.n),
		telemetry.Int("max_errors", opt.MaxErrors),
		telemetry.Int("policy", int(opt.Policy)),
		telemetry.Bool("exact", opt.Exact),
		telemetry.Bool("resumed", cp != nil))
	r.ctx = ctx
	if opt.Budget.Time > 0 {
		r.deadline = time.Now().Add(opt.Budget.Time)
	}
	runCtx := r.ctx
	startStep := 0
	if cp != nil {
		startStep = cp.Step
		r.stepIdx = cp.Step
		r.params = opt.Schedule[cp.Step]
		r.res.Stats.Schedule = r.params
		if err := r.restore(cp); err != nil {
			runSpan.End(telemetry.String("status", "resume-failed"))
			return nil, err
		}
	}
	for i := startStep; i < len(opt.Schedule); i++ {
		if r.stopNow() {
			break
		}
		p := opt.Schedule[i]
		r.stepIdx = i
		r.params = p
		r.res.Stats.Schedule = p
		if !r.hasResume {
			r.seen = map[string]bool{}
			r.minDepth = 0
		}
		// Nest this schedule step's spans under step[i]; the step context
		// only adds span identity, so cancellation polling is unchanged.
		stepCtx, stepSpan := tr.StartSpan(runCtx, telemetry.SpanName("step", i),
			telemetry.Float("h1", p.H1), telemetry.Float("h2", p.H2), telemetry.Float("h3", p.H3))
		r.ctx = stepCtx
		r.search()
		stepSpan.End(
			telemetry.Int("solutions", len(r.res.Solutions)),
			telemetry.Int("nodes", r.res.Stats.Nodes))
		r.ctx = runCtx
		if len(r.res.Solutions) > 0 {
			break
		}
	}
	r.finish()
	runSpan.End(
		telemetry.String("status", r.res.Status.String()),
		telemetry.Int("solutions", len(r.res.Solutions)),
		telemetry.Int("verified", r.res.Stats.Verified),
		telemetry.Int("nodes", r.res.Stats.Nodes),
		telemetry.Int64("simulations", r.res.Stats.Simulations),
		telemetry.Int64("candidates", r.res.Stats.Candidates),
		telemetry.Int64("diag_ns", r.res.Stats.DiagTime.Nanoseconds()),
		telemetry.Int64("corr_ns", r.res.Stats.CorrTime.Nanoseconds()))
	return r.res, nil
}

type runState struct {
	ctx     context.Context
	base    *circuit.Circuit
	specOut [][]uint64
	pi      [][]uint64
	n, w    int
	model   Model
	opt     Options
	params  Params
	res     *Result

	seen     map[string]bool
	minDepth int       // smallest solution size found so far (0 = none)
	deadline time.Time // zero = unlimited
	stepIdx  int       // current schedule step index (checkpoint payload)

	// Resume state, filled by restore() from a journal checkpoint and consumed
	// by the first search() call of a resumed run.
	hasResume      bool
	resumeFrontier []*node
	resumeRound    int
	resumeNodes    int

	halted     bool   // a stop condition fired; unwind
	haltStatus Status // why (sticky: first reason wins)
	checkTick  int    // fine-grained poll dampener (see stop)

	// lazy ranks corrections on demand (first-solution runs); exact runs
	// rank every survivor at expansion. See rank.go.
	lazy bool

	// Telemetry. tr is nil for untraced runs; the cached metric handles are
	// then nil too and no-op, so expand pays only dead branches.
	tr          *telemetry.Tracer
	cTrials     *telemetry.Counter   // sim.trials: propagations run (wired into each node's engine)
	cEvents     *telemetry.Counter   // sim.events: lines re-evaluated by them
	cKept       *telemetry.Counter   // pathtrace.kept — suspects surviving Top+widening
	cDropped    *telemetry.Counter   // pathtrace.dropped — marked lines cut away
	cVerified   *telemetry.Counter   // result.verified — solutions passing the gate
	cVerifyFail *telemetry.Counter   // result.verify_failed — solutions dropped by it
	hRect       *telemetry.Histogram // diagnose.h1_rect — per-suspect rectified bits

	rows trialRows // reusable value rows of the per-node trial loops

	// screen is the Theorem-1 screen of ErrorModel candidates, reset per
	// suspect line; mods is the current chunk of the slab its survivors
	// are boxed in (see box).
	screen errmodel.Screen
	mods   []errmodel.Mod

	// free holds the engines the run's nodes have released; newEngine
	// rebuilds the next engine in one of them (see releaseEngine). built
	// counts the engines allocated because the list was empty.
	free  []*sim.Engine
	built int
}

// trialRows are the reusable value-row buffers consumed by the per-node
// trial loops, so the hot path allocates nothing.
type trialRows struct {
	forced []uint64 // H1: inverted-Verr row forced onto a suspect
	cand   []uint64 // screen: candidate-correction output row
	orBad  []uint64 // screen: OR of newly-erroneous bits (Vcorr)
	still  []uint64 // fixedVectors: OR of post-trial diffs
}

// newTrialRows carves w-word trial rows out of one slab.
func newTrialRows(w int) trialRows {
	q := make([]uint64, 4*w)
	return trialRows{forced: q[0*w : 1*w], cand: q[1*w : 2*w], orBad: q[2*w : 3*w], still: q[3*w : 4*w]}
}

// instrument resolves the run's metric handles from the tracer's registry
// (all nil when the run is untraced).
func (r *runState) instrument() {
	reg := r.tr.Registry()
	r.cTrials = reg.Counter("sim.trials")
	r.cEvents = reg.Counter("sim.events")
	r.cKept = reg.Counter("pathtrace.kept")
	r.cDropped = reg.Counter("pathtrace.dropped")
	r.cVerified = reg.Counter("result.verified")
	r.cVerifyFail = reg.Counter("result.verify_failed")
	r.hRect = reg.Histogram("diagnose.h1_rect")
}

type node struct {
	corrs []Correction
	cands []RankedCorrection // corrections handed out so far, best first (see ensure)
	next  int
	fails int
	rank  *ranking // corrections not yet handed out; nil once drained or capped
}

// search runs one schedule step's traversal under the configured policy.
func (r *runState) search() {
	var frontier []*node
	var nodesThisStep, startRound int
	if r.hasResume {
		// A checkpoint restored this step's frontier (PolicyRounds only —
		// resume validation rejects the other policies): skip the fresh root
		// expansion and continue at the checkpointed round.
		frontier, nodesThisStep, startRound = r.resumeFrontier, r.resumeNodes, r.resumeRound
		r.hasResume, r.resumeFrontier = false, nil
		if startRound < 1 {
			startRound = 1
		}
	} else {
		root := r.expandTraced(nil)
		if root.fails == 0 {
			r.record(nil)
			return
		}
		switch r.opt.Policy {
		case PolicyDFS:
			r.searchDFS(root)
			return
		case PolicyBFS:
			r.searchBFS(root)
			return
		}
		frontier = []*node{root}
		nodesThisStep = 1
		startRound = 1
	}
	for round := startRound; round <= r.opt.MaxRounds && len(frontier) > 0; round++ {
		r.res.Stats.Rounds = round
		if r.stopNow() {
			return
		}
		if !r.opt.Exact && len(r.res.Solutions) > 0 {
			return
		}
		// Round boundaries are the resume points: the frontier written here is
		// exactly the state a crashed run needs to re-enter this round.
		r.emitCheckpoint(round, frontier, nodesThisStep)
		snapshot := frontier
		frontier = frontier[:0:0]
		for _, nd := range snapshot {
			if r.stopNow() {
				return
			}
			if r.minDepth > 0 && len(nd.corrs)+1 > r.minDepth {
				continue // cannot yield a minimal-size solution anymore
			}
			for r.ensure(nd, nd.next) {
				rc := nd.cands[nd.next]
				nd.next++
				corrs := append(append([]Correction(nil), nd.corrs...), rc.C)
				key := setKey(corrs)
				if r.seen[key] {
					continue
				}
				r.seen[key] = true
				child := r.expandTraced(corrs)
				nodesThisStep++
				if child.fails == 0 {
					r.record(corrs)
					if !r.opt.Exact {
						return
					}
				} else if len(child.corrs) < r.maxDepth() {
					r.release(child)
					frontier = append(frontier, child)
				}
				break
			}
			if r.ensure(nd, nd.next) {
				frontier = append(frontier, nd)
			}
			r.release(nd)
			if nodesThisStep >= r.opt.MaxNodes {
				return
			}
		}
	}
}

// searchDFS greedily follows best-ranked corrections depth first with
// chronological backtracking — the pure-DFS ablation of §3.3.
func (r *runState) searchDFS(root *node) {
	stack := []*node{root}
	nodesThisStep := 1
	for len(stack) > 0 && nodesThisStep < r.opt.MaxNodes {
		if r.stopNow() {
			return
		}
		if !r.opt.Exact && len(r.res.Solutions) > 0 {
			return
		}
		nd := stack[len(stack)-1]
		if r.minDepth > 0 && len(nd.corrs)+1 > r.minDepth {
			r.release(nd)
			stack = stack[:len(stack)-1]
			continue
		}
		child := (*node)(nil)
		for r.ensure(nd, nd.next) {
			rc := nd.cands[nd.next]
			nd.next++
			corrs := append(append([]Correction(nil), nd.corrs...), rc.C)
			key := setKey(corrs)
			if r.seen[key] {
				continue
			}
			r.seen[key] = true
			child = r.expandTraced(corrs)
			nodesThisStep++
			break
		}
		if child == nil {
			stack = stack[:len(stack)-1]
			continue
		}
		if child.fails == 0 {
			r.record(child.corrs)
			if !r.opt.Exact {
				return
			}
			continue
		}
		if len(child.corrs) < r.maxDepth() {
			r.release(nd) // only the top of the stack keeps its engine
			stack = append(stack, child)
		}
	}
}

// searchBFS expands every candidate of every node level by level — the
// naive-BFS ablation of §3.3.
func (r *runState) searchBFS(root *node) {
	queue := []*node{root}
	nodesThisStep := 1
	for len(queue) > 0 && nodesThisStep < r.opt.MaxNodes {
		if r.stopNow() {
			return
		}
		if !r.opt.Exact && len(r.res.Solutions) > 0 {
			return
		}
		nd := queue[0]
		queue = queue[1:]
		if r.minDepth > 0 && len(nd.corrs)+1 > r.minDepth {
			continue
		}
		for nodesThisStep < r.opt.MaxNodes && r.ensure(nd, nd.next) {
			rc := nd.cands[nd.next]
			nd.next++
			corrs := append(append([]Correction(nil), nd.corrs...), rc.C)
			key := setKey(corrs)
			if r.seen[key] {
				continue
			}
			r.seen[key] = true
			child := r.expandTraced(corrs)
			nodesThisStep++
			if child.fails == 0 {
				r.record(corrs)
				if !r.opt.Exact {
					return
				}
				continue
			}
			if len(child.corrs) < r.maxDepth() {
				r.release(child)
				queue = append(queue, child)
			}
		}
		r.release(nd)
	}
}

// maxDepth is the current tuple-size bound: MaxErrors, tightened to the
// minimal solution size in exact mode.
func (r *runState) maxDepth() int {
	if r.opt.Exact && r.minDepth > 0 && r.minDepth < r.opt.MaxErrors {
		return r.minDepth
	}
	return r.opt.MaxErrors
}

func (r *runState) record(corrs []Correction) {
	if !r.opt.NoVerify {
		if !r.verifySolution(corrs) {
			// The incremental engine claims this tuple rectifies every vector
			// but an independent from-scratch re-simulation disagrees: drop it
			// rather than report an unproven repair.
			r.cVerifyFail.Inc()
			if r.tr != nil {
				r.tr.Event(r.ctx, "verify_failed",
					telemetry.Int("size", len(corrs)),
					telemetry.Attr{Key: "corrections", Value: corrNames(corrs)})
			}
			return
		}
		r.cVerified.Inc()
		r.res.Stats.Verified++
	}
	r.res.Solutions = append(r.res.Solutions, Solution{Corrections: corrs})
	if r.minDepth == 0 || len(corrs) < r.minDepth {
		r.minDepth = len(corrs)
	}
	if r.tr != nil {
		r.tr.Event(r.ctx, "solution",
			telemetry.Int("size", len(corrs)),
			telemetry.Bool("verified", !r.opt.NoVerify),
			telemetry.Attr{Key: "corrections", Value: corrNames(corrs)})
	}
}

func corrNames(corrs []Correction) []string {
	names := make([]string, len(corrs))
	for i, c := range corrs {
		names[i] = c.String()
	}
	return names
}

// finish sets the outcome status, deduplicates solutions and, in exact
// mode, keeps only the minimal-cardinality ones.
func (r *runState) finish() {
	switch {
	case r.halted:
		r.res.Status = r.haltStatus
	case len(r.res.Solutions) > 0 && !r.opt.Exact:
		r.res.Status = StatusFirstSolution
	default:
		r.res.Status = StatusComplete
	}
	sols := r.res.Solutions
	if len(sols) == 0 {
		return
	}
	minSize := len(sols[0].Corrections)
	for _, s := range sols {
		if len(s.Corrections) < minSize {
			minSize = len(s.Corrections)
		}
	}
	seen := map[string]bool{}
	var out []Solution
	for _, s := range sols {
		if r.opt.Exact && len(s.Corrections) > minSize {
			continue
		}
		k := setKey(s.Corrections)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, s)
	}
	r.res.Solutions = out
}

func setKey(corrs []Correction) string {
	ss := make([]string, len(corrs))
	for i, c := range corrs {
		ss[i] = c.String()
	}
	sort.Strings(ss)
	return strings.Join(ss, "|")
}

// expandTraced is expand plus accounting: it owns the Stats.Nodes increment
// (every expansion is exactly one search node) and, when the run is traced,
// wraps the expansion in a node span whose journal events carry the phase
// timings and candidate ranking for this node.
func (r *runState) expandTraced(corrs []Correction) *node {
	idx := r.res.Stats.Nodes
	r.res.Stats.Nodes++
	if r.tr == nil {
		return r.expand(corrs)
	}
	before := r.res.Stats
	_, span := r.tr.StartSpan(r.ctx, telemetry.SpanName("node", idx),
		telemetry.Int("depth", len(corrs)))
	nd := r.expand(corrs)
	via := ""
	if len(corrs) > 0 {
		via = corrs[len(corrs)-1].String()
	}
	span.Event("candidates", telemetry.Int("total", nd.awaiting()))
	after := r.res.Stats
	span.End(
		telemetry.String("via", via),
		telemetry.Int("fails", nd.fails),
		telemetry.Int64("sims", after.Simulations-before.Simulations),
		telemetry.Int64("cand_seen", after.Candidates-before.Candidates),
		telemetry.Int("screened", after.Screened-before.Screened),
		telemetry.Int("h3_rejected", after.H3Rejected-before.H3Rejected),
		telemetry.Int64("diag_ns", (after.DiagTime-before.DiagTime).Nanoseconds()),
		telemetry.Int64("corr_ns", (after.CorrTime-before.CorrTime).Nanoseconds()))
	return nd
}

// expand materializes the netlist with the given corrections applied,
// simulates it, and computes the node's ranked correction candidates via the
// paper's two-step diagnosis and screened correction procedure.
func (r *runState) expand(corrs []Correction) *node {
	nd := &node{corrs: corrs}
	e, err := r.simulate(corrs)
	if err != nil {
		// A correction that replays illegally yields a dead node.
		nd.fails = r.n + 1
		return nd
	}
	r.res.Stats.Simulations++
	ec := r.newExpandCtx(e)
	nd.fails = ec.fails
	if nd.fails == 0 || len(corrs) >= r.maxDepth() {
		// Solved, or at the depth limit: no candidates needed.
		r.releaseEngine(e)
		return nd
	}
	ec.verr = r.failSpace(ec.full, ec.fails)
	nd.rank = r.candidates(ec)
	if nd.rank.ec == nil {
		r.releaseCtx(ec) // the ranking keeps no view: the expansion is done with both
	}
	return nd
}

// simulate builds the netlist with corrs applied and simulates it over V.
func (r *runState) simulate(corrs []Correction) (*sim.Engine, error) {
	ckt := r.base.Clone()
	for _, c := range corrs {
		if err := c.Apply(ckt); err != nil {
			return nil, err
		}
	}
	return r.newEngine(ckt, r.pi, r.n), nil
}

// newEngine simulates c over the n patterns in pi, in the storage of an
// engine the run has released when it holds one.
func (r *runState) newEngine(c *circuit.Circuit, pi [][]uint64, n int) *sim.Engine {
	var e *sim.Engine
	if k := len(r.free); k > 0 {
		e, r.free = r.free[k-1], r.free[:k-1]
		e.Reset(c, pi, n)
	} else {
		e = sim.NewEngine(c, pi, n)
		r.built++
	}
	e.CTrials, e.CEvents = r.cTrials, r.cEvents
	return e
}

// poisonReleased, when nonzero, is written over every value and scratch
// row of an engine as it is released, so a read of a released engine
// yields garbage instead of the values it held. Only tests set it.
var poisonReleased uint64

// releaseEngine puts e on the run's free list, for the next newEngine to
// rebuild. The caller drops its last reference to e here; nothing read
// from e may be used afterwards. A node's two engines simulate the same
// circuit, but circuits are never recycled, so releasing one view's engine
// leaves the other's circuit intact.
func (r *runState) releaseEngine(e *sim.Engine) {
	if poisonReleased != 0 {
		e.Poison(poisonReleased)
	}
	r.free = append(r.free, e)
}

// releaseCtx releases the engines of ec's views (one when the Verr view is
// the full view) and clears both views.
func (r *runState) releaseCtx(ec *expandCtx) {
	if ec.verr.e != nil && ec.verr.e != ec.full.e {
		r.releaseEngine(ec.verr.e)
	}
	if ec.full.e != nil {
		r.releaseEngine(ec.full.e)
	}
	ec.full, ec.verr = vecView{}, vecView{}
}

// candidates runs a node's diagnosis (path trace, then heuristic 1) and
// correction (enumerate, screen with h2 then h3, rank) steps and returns the
// node's ranking: fully ranked in exact runs, ranked on demand in
// first-solution runs (see rank.go).
func (r *runState) candidates(ec *expandCtx) *ranking {
	// --- Diagnosis: path trace, then heuristic 1. ---
	t0 := time.Now()
	restorePhase := r.tr.Phase(r.ctx, "diagnosis")
	var suspects []circuit.Line
	if r.opt.DisablePathTrace {
		for l := 0; l < ec.ckt.NumLines(); l++ {
			suspects = append(suspects, circuit.Line(l))
		}
	} else {
		v := &ec.verr
		pt := pathtrace.Trace(ec.ckt, v.e.Values(), v.spec, v.e.N)
		suspects = pt.Top(r.opt.PathTraceKeep, r.opt.MinKeep)
		// Theorem-1 pigeonhole widening: under the current (relaxed)
		// assumption that a single error need only explain an H1 fraction of
		// the failing behaviour, every line marked on at least H1·Fail
		// traces is a legitimate suspect even when the top-percentage cut
		// dropped it — with multiple errors the highest path-trace counts
		// concentrate on downstream reconvergence regions, not the error
		// sites themselves.
		if r.params.H1 < 1 {
			seen := make(map[circuit.Line]bool, len(suspects))
			for _, l := range suspects {
				seen[l] = true
			}
			for _, l := range pt.AboveFraction(r.params.H1) {
				if !seen[l] {
					suspects = append(suspects, l)
				}
			}
		}
		if r.cKept != nil {
			r.cKept.Add(int64(len(suspects)))
			r.cDropped.Add(int64(pt.MarkedCount() - len(suspects)))
		}
	}
	lines := r.rankSuspects(ec, suspects)
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].rectified != lines[j].rectified {
			return lines[i].rectified > lines[j].rectified
		}
		return lines[i].l < lines[j].l
	})
	if len(lines) > r.opt.MaxSuspects {
		lines = lines[:r.opt.MaxSuspects]
	}
	r.res.Stats.DiagTime += time.Since(t0)
	restorePhase()

	// --- Correction: enumerate, screen (h2 then h3), rank. ---
	t1 := time.Now()
	restorePhase = r.tr.Phase(r.ctx, "correction")
	var rk *ranking
	if !r.lazy {
		rk = r.newRanking(ec, r.screenCorrections(ec, lines), nil)
	} else {
		rk = r.screenLazy(ec, lines)
	}
	r.res.Stats.CorrTime += time.Since(t1)
	restorePhase()
	return rk
}

// vecView is one vector space a node's trials run in: an engine simulated
// over those vectors plus the reference output rows, the erroneous bits of
// each output and the failing-vector mask, all at the engine's width and
// in netlist PO order. Rows are tail-masked where the count matters.
type vecView struct {
	e    *sim.Engine
	spec [][]uint64
	diff [][]uint64
	mask []uint64
	// obs holds the target lines' observability rows built so far in this
	// view (see observe.go).
	obs map[circuit.Line]*obsRows
}

// expandCtx bundles the per-node state shared by the diagnosis and
// correction loops of one expansion: the node's two vector spaces, the
// failing-vector counts the screens and scores are computed against, and
// the PO lookup. Only the first-solution screens write to it: they build
// observability rows.
//
// full spans all of V; it carries the Vcorr/h3 screen, the ranking counts
// and the verify gate. verr spans the failing vectors alone (the paper's
// Verr) and carries path trace, heuristic 1 and the Theorem-1 screen —
// every step the paper defines over the failing vectors. All three count
// only failing-vector bits, and the simulation of a vector does not depend
// on any other vector, so their counts are the same in either space.
type expandCtx struct {
	ckt       *circuit.Circuit
	full      vecView
	verr      vecView
	poIndex   []int32 // per line: its index in ckt.POs, -1 if it is not a PO
	errBits   int
	fails     int
	passCount int
}

// newExpandCtx computes a node's failing-vector bookkeeping over all of V
// from its simulated engine. The Verr view is left unset (see failSpace).
func (r *runState) newExpandCtx(e *sim.Engine) *expandCtx {
	ckt := e.C
	failMask := make([]uint64, e.W)
	diff := make([][]uint64, len(ckt.POs))
	rows := make([]uint64, len(ckt.POs)*e.W)
	errBits := 0
	for i, po := range ckt.POs {
		d := rows[i*e.W : (i+1)*e.W : (i+1)*e.W]
		row := e.BaseVal(po)
		for w := range d {
			d[w] = row[w] ^ r.specOut[i][w]
		}
		d[e.W-1] &= sim.TailMask(r.n)
		diff[i] = d
		errBits += popcount(d)
		for w := range d {
			failMask[w] |= d[w]
		}
	}
	fails := popcount(failMask)
	poIndex := make([]int32, ckt.NumLines())
	for l := range poIndex {
		poIndex[l] = -1
	}
	// A line listed as a PO twice keeps its last index.
	for i, po := range ckt.POs {
		poIndex[po] = int32(i)
	}
	return &expandCtx{
		ckt:       ckt,
		full:      vecView{e: e, spec: r.specOut, diff: diff, mask: failMask},
		poIndex:   poIndex,
		errBits:   errBits,
		fails:     fails,
		passCount: r.n - fails,
	}
}

// failSpace builds a node's Verr view: the failing columns of the primary
// inputs, reference outputs and diff rows, gathered into Words(fails)-word
// rows, and a second engine simulating the node's circuit over them. All
// the rows go through one GatherMask call, so the failMask's compress masks
// are computed once per node. When the gather would not save a word the
// full view serves as the Verr view, its failMask selecting the failing
// vectors in place.
func (r *runState) failSpace(full vecView, fails int) vecView {
	if sim.Words(fails) == full.e.W {
		return full
	}
	np, ns := len(r.pi), len(full.spec)
	rows := make([][]uint64, 0, np+ns+len(full.diff))
	g := sim.GatherMask(append(append(append(rows, r.pi...), full.spec...), full.diff...), full.mask)
	e := r.newEngine(full.e.C, g[:np:np], fails)
	mask := make([]uint64, e.W)
	for w := range mask {
		mask[w] = ^uint64(0)
	}
	mask[e.W-1] = sim.TailMask(fails)
	return vecView{
		e:    e,
		spec: g[np : np+ns : np+ns],
		diff: g[np+ns:],
		mask: mask,
	}
}

type scoredLine struct {
	l         circuit.Line
	rectified int
}

// rankSuspects runs heuristic 1 over the surviving path-trace lines: invert
// each suspect's Verr bit-list (its values on failing vectors), propagate,
// and keep the lines whose maximum effect rectifies at least H1·errBits
// erroneous output bits. The trials run on the node's Verr engine.
func (r *runState) rankSuspects(ec *expandCtx, suspects []circuit.Line) []scoredLine {
	var lines []scoredLine
	for _, l := range suspects {
		if r.stop() {
			break
		}
		r.res.Stats.Simulations++
		rect := r.h1Trial(ec, l)
		r.hRect.Observe(int64(rect))
		if float64(rect) >= r.params.H1*float64(ec.errBits)-1e-9 {
			lines = append(lines, scoredLine{l, rect})
		}
	}
	return lines
}

// h1Trial forces l's values with its Verr bit-list inverted — the maximum
// effect any modification of l can have — and counts the erroneous output
// bits the propagation rectifies on the node's Verr engine.
func (r *runState) h1Trial(ec *expandCtx, l circuit.Line) int {
	v := &ec.verr
	e := v.e
	row := e.BaseVal(l)
	forced := r.rows.forced[:e.W]
	for w := range forced {
		forced[w] = row[w] ^ v.mask[w]
	}
	rect := 0
	for _, x := range e.Trial(l, forced) {
		if i := ec.poIndex[x]; i >= 0 {
			rect += rectifiedBits(e, x, v.diff[i], v.spec[i])
		}
	}
	return rect
}

// screenOutcome is one candidate's screening verdict.
type screenOutcome uint8

const (
	screenRejected screenOutcome = iota // failed the Theorem-1 complement test
	screenNoChange                      // trial identical to base: dead candidate
	screenNewFails                      // failed the Vcorr newly-failing test
	screenKept                          // survives; rect/newFails/fixes valid
)

// screenResult carries the per-candidate counts the ranking formula needs.
type screenResult struct {
	outcome  screenOutcome
	rect     int32
	newFails int32
	fixes    int32
}

// screenCorrections is the exact runs' correction screen: it enumerates the
// correction model at every ranked suspect and screens each candidate — the
// Theorem-1 complement test on the Verr engine (see screenLine), then a
// full-width trial propagation for the Vcorr screen and the ranking
// metrics — ranking every survivor.
func (r *runState) screenCorrections(ec *expandCtx, lines []scoredLine) []rankEntry {
	var cands []rankEntry
	for _, sl := range lines {
		if r.halted {
			break
		}
		r.screenLine(ec, sl.l, func(corr Correction) {
			r.res.Stats.Simulations++
			sr := r.screenTrial(ec, corr)
			r.countTrial(sr)
			if sr.outcome == screenKept {
				cands = append(cands, rankEntry{rc: r.rankCorrection(ec, corr, sr), idx: len(cands)})
			}
		})
	}
	return cands
}

// screenLine enumerates the correction model at line l and runs the
// Theorem-1 screen on each candidate, calling keep for each survivor with
// its candidate row on the Verr engine in r.rows.cand. Every candidate
// polls stop once before it is counted, so counted budgets and wall-clock
// polls cut at the same candidate whichever path screens it.
//
// An *ErrorModel is walked and screened by errmodel.Screen: its wire
// candidates, nearly all of them, are counted with a word op each and only
// survivors are built. Other models are enumerated and each candidate's row
// evaluated (theorem1).
func (r *runState) screenLine(ec *expandCtx, l circuit.Line, keep func(Correction)) {
	em, ok := r.model.(*ErrorModel)
	if !ok {
		for _, corr := range r.model.Enumerate(ec.ckt, l) {
			if r.stop() {
				return
			}
			r.res.Stats.Candidates++
			if !r.theorem1(ec, corr) {
				r.res.Stats.Screened++
				continue
			}
			keep(corr)
		}
		return
	}
	v := &ec.verr
	sc := &r.screen
	sc.Reset(v.e, l, v.mask)
	sc.Walk(em.WireSources, func(m errmodel.Mod) bool {
		if r.stop() {
			return false
		}
		r.res.Stats.Candidates++
		if !r.complements(ec, sc.Complement(m)) {
			r.res.Stats.Screened++
			return true
		}
		corr := r.box(m)
		corr.NewValues(v.e, r.rows.cand[:v.e.W])
		keep(corr)
		return true
	})
}

// modChunk is the number of survivors a run's mod slab holds per chunk.
const modChunk = 256

// box copies a Theorem-1 survivor into the run's mod slab and returns a
// pointer to it. A full chunk is left to its survivors and a fresh one
// started, so a pointer box handed out stays valid.
func (r *runState) box(m errmodel.Mod) *errmodel.Mod {
	if len(r.mods) == cap(r.mods) {
		r.mods = make([]errmodel.Mod, 0, modChunk)
	}
	r.mods = append(r.mods, m)
	return &r.mods[len(r.mods)-1]
}

// countTrial accounts one full-width screen: Trials counts the screens of a
// row that changes the target's values, whether propagated or scored from
// observability rows, and H3Rejected those the Vcorr/h3 screen rejected.
func (r *runState) countTrial(sr screenResult) {
	switch sr.outcome {
	case screenNewFails:
		r.res.Stats.H3Rejected++
		r.res.Stats.Trials++
	case screenKept:
		r.res.Stats.Trials++
	}
}

// theorem1 is the Theorem-1 screen of models other than *ErrorModel (see
// screenLine): the correction must complement at least h2·|Verr| bits of
// its target's Verr bit-list. It evaluates the correction on the node's
// Verr engine, so the local evaluation spans the failing vectors alone,
// and leaves the candidate row in r.rows.cand.
func (r *runState) theorem1(ec *expandCtx, corr Correction) bool {
	e := ec.verr.e
	cand := r.rows.cand[:e.W]
	corr.NewValues(e, cand)
	base := e.BaseVal(corr.Target())
	mask := ec.verr.mask
	comp := 0
	for w := range cand {
		comp += bits.OnesCount64((cand[w] ^ base[w]) & mask[w])
	}
	return r.complements(ec, comp)
}

// complements is the Theorem-1 threshold: comp complemented Verr bits
// reach h2·|Verr|.
func (r *runState) complements(ec *expandCtx, comp int) bool {
	return float64(comp) >= r.params.H2*float64(ec.fails)-1e-9
}

// screenTrial is the full-width half of the screen for a Theorem-1
// survivor: it trial-propagates the correction over all of V, on the
// node's full engine, for the Vcorr screen and the ranking metrics.
func (r *runState) screenTrial(ec *expandCtx, corr Correction) screenResult {
	corr.NewValues(ec.full.e, r.rows.cand[:ec.full.e.W])
	return r.fullTrial(ec, corr)
}

// trialRow trial-propagates a correction's candidate row on e. Multi-target
// corrections (bridging faults) force the same row onto every affected net
// at once.
func trialRow(e *sim.Engine, corr Correction, cand []uint64) []circuit.Line {
	if mt, ok := corr.(multiTargeter); ok {
		targets := mt.Targets()
		rows := make([][]uint64, len(targets))
		for i := range rows {
			rows[i] = cand
		}
		return e.TrialMulti(targets, rows)
	}
	return e.Trial(corr.Target(), cand)
}

// fullTrial is screenTrial for a candidate row already in r.rows.cand.
func (r *runState) fullTrial(ec *expandCtx, corr Correction) screenResult {
	v := &ec.full
	e := v.e
	changed := trialRow(e, corr, r.rows.cand[:e.W])
	if len(changed) == 0 {
		return screenResult{outcome: screenNoChange}
	}
	rect := 0
	orBad := r.rows.orBad[:e.W]
	for w := range orBad {
		orBad[w] = 0
	}
	for _, x := range changed {
		i := ec.poIndex[x]
		if i < 0 {
			continue
		}
		rect += rectifiedBits(e, x, v.diff[i], v.spec[i])
		tv := e.TrialVal(x)
		spec := v.spec[i]
		for w := range orBad {
			orBad[w] |= (tv[w] ^ spec[w]) &^ v.mask[w]
		}
	}
	orBad[e.W-1] &= sim.TailMask(r.n)
	newFails := popcount(orBad)
	if r.h3Rejects(ec, newFails) {
		return screenResult{outcome: screenNewFails}
	}
	fixes := fixedVectors(e, &r.rows, v)
	return screenResult{
		outcome:  screenKept,
		rect:     int32(rect),
		newFails: int32(newFails),
		fixes:    int32(fixes),
	}
}

// h3Rejects is the Vcorr/h3 screen: a correction may newly fail at most
// (1−h3) of the node's passing vectors.
func (r *runState) h3Rejects(ec *expandCtx, newFails int) bool {
	return float64(newFails) > (1-r.params.H3)*float64(ec.passCount)+1e-9
}

// rankCorrection turns a kept candidate's screen counts into the ranked
// form. h1score blends the two readings of "erroneous primary outputs
// rectified": the fraction of erroneous output bits corrected and the
// fraction of failing vectors fully fixed. The vector term is what makes
// corrections that complete a repair outrank partial bit-chasers (the
// paper's iteration goal is reducing the number of erroneous vectors).
func (r *runState) rankCorrection(ec *expandCtx, corr Correction, sr screenResult) RankedCorrection {
	vRatio := float64(ec.fails) / float64(r.n)
	h1s := 0.0
	if ec.errBits > 0 {
		h1s = float64(sr.rect) / float64(ec.errBits) / 2
	}
	h1s += float64(sr.fixes) / float64(ec.fails) / 2
	h3s := 1.0
	if ec.passCount > 0 {
		h3s = 1 - float64(sr.newFails)/float64(ec.passCount)
	}
	return RankedCorrection{
		C:        corr,
		Rank:     (1-vRatio)*h3s + vRatio*h1s,
		H1Score:  h1s,
		H3Score:  h3s,
		NewFails: int(sr.newFails),
		Fixes:    int(sr.fixes),
	}
}

// rectifiedBits counts erroneous bits of PO x (diff row d, reference row
// spec) that the current trial turns correct.
func rectifiedBits(e *sim.Engine, x circuit.Line, d, spec []uint64) int {
	tv := e.TrialVal(x)
	rect := 0
	for w := 0; w < e.W; w++ {
		rect += bits.OnesCount64(d[w] &^ (tv[w] ^ spec[w]))
	}
	return rect
}

// fixedVectors counts failing vectors that the current trial fully
// rectifies (all POs correct) in view v. It works entirely in rows scratch
// so the screening hot loop stays allocation-free.
func fixedVectors(e *sim.Engine, rows *trialRows, v *vecView) int {
	still := stillBad(e, rows, v)
	fixed := 0
	for w := range still {
		fixed += bits.OnesCount64(v.mask[w] &^ still[w])
	}
	return fixed
}

// stillBad computes, into rows.still, the OR over POs of their post-trial diff
// in view v. TrialVal falls back to the base row for POs the trial never
// reached, so tv^spec is the post-trial diff for changed and unchanged
// outputs alike.
func stillBad(e *sim.Engine, rows *trialRows, v *vecView) []uint64 {
	still := rows.still[:e.W]
	for w := range still {
		still[w] = 0
	}
	for i, po := range e.C.POs {
		tv := e.TrialVal(po)
		spec := v.spec[i]
		for w := range still {
			still[w] |= tv[w] ^ spec[w]
		}
	}
	return still
}

func popcount(row []uint64) int {
	t := 0
	for _, x := range row {
		t += bits.OnesCount64(x)
	}
	return t
}
