package diagnose

import (
	"sort"
	"time"
)

// A node's corrections reach the search through ensure, in the order
// rank descending, then C.String(), then enumeration order, capped at
// Options.MaxCorrectionsPerNode. Exact runs rank every Theorem-1 survivor
// at expansion (the eager screen). First-solution runs expand only the few
// best corrections of most nodes, so they score each survivor in the
// node's Verr view instead: that yields h1score exactly (rect and fixes
// count only failing-vector bits), and with h3score ≤ 1 it bounds the
// rank. The full-width screen that gives the exact rank runs only when the
// search asks the node for its next correction and the survivor's bound
// could still beat the best exactly ranked correction not yet handed out.
// Both scores come from the target line's observability rows in that view
// (observe.go), one flip trial per line instead of one propagation per
// correction. The sequence handed out is therefore the eager screen's
// sorted prefix; only Stats.Trials and Stats.H3Rejected, which count
// full-width screens run, come out smaller.

// ranking is a node's corrections not yet handed to the search.
type ranking struct {
	// ec is the node's full view while a visit holds it, nil between
	// visits: frontier nodes keep no engine (see release).
	ec *expandCtx
	// pending holds the survivors awaiting their full-width trial, best
	// bound first. Eager nodes have none.
	pending []pendingCorr
	// ready holds the exactly ranked corrections, worst first, so the next
	// one to hand out is the last.
	ready []rankEntry
}

// pendingCorr is a survivor of a lazy node ranked only by its bound
// (1−Vratio)·1 + Vratio·h1score ≥ rank.
type pendingCorr struct {
	c     Correction
	bound float64
	idx   int
}

// rankEntry is an exactly ranked correction with its tie-break keys: the
// correction's string, computed at most once, and its enumeration index.
type rankEntry struct {
	rc  RankedCorrection
	idx int
	key string
}

func (e *rankEntry) name() string {
	if e.key == "" {
		e.key = e.rc.C.String()
	}
	return e.key
}

// before is the node ranking order: rank descending, then C.String(), then
// enumeration order.
func (e *rankEntry) before(o *rankEntry) bool {
	if e.rc.Rank != o.rc.Rank {
		return e.rc.Rank > o.rc.Rank
	}
	if a, b := e.name(), o.name(); a != b {
		return a < b
	}
	return e.idx < o.idx
}

// newRanking sorts the exactly ranked entries worst first and keeps only
// the best MaxCorrectionsPerNode: no others can ever be handed out.
func (r *runState) newRanking(ec *expandCtx, ready []rankEntry, pending []pendingCorr) *ranking {
	sort.Slice(ready, func(i, j int) bool { return ready[j].before(&ready[i]) })
	if k := len(ready) - r.opt.MaxCorrectionsPerNode; k > 0 {
		ready = ready[k:]
	}
	sort.Slice(pending, func(i, j int) bool {
		if pending[i].bound != pending[j].bound {
			return pending[i].bound > pending[j].bound
		}
		return pending[i].idx < pending[j].idx
	})
	if len(pending) == 0 {
		ec = nil
	}
	return &ranking{ec: ec, pending: pending, ready: ready}
}

// awaiting is the number of corrections the node has not handed out and
// has not yet rejected.
func (nd *node) awaiting() int {
	if nd.rank == nil {
		return 0
	}
	return len(nd.rank.pending) + len(nd.rank.ready)
}

// release drops the node's engines at the end of a visit and puts them on
// the run's free list; a later visit that needs a full-width trial
// re-simulates the node. Engines go back at the exact points where their
// last reference is dropped:
//   - expand, for a solved node or one at the depth limit, and at the end
//     of an expansion whose ranking keeps no view (every exact node, and a
//     first-solution node with nothing pending);
//   - screenLazy, for a Verr engine that is not the full view's;
//   - release, at the end of a visit and for a node the search drops;
//   - ensure, when it drains or caps a node's ranking.
func (r *runState) release(nd *node) {
	if nd.rank != nil && nd.rank.ec != nil {
		r.releaseCtx(nd.rank.ec)
		nd.rank.ec = nil
	}
}

// ensure reports whether nd has a ranked correction at index i, ranking
// pending survivors exactly until the i-th is known. A node it drains or
// caps releases its engines with its survivors.
func (r *runState) ensure(nd *node, i int) bool {
	for i >= len(nd.cands) {
		if nd.rank == nil {
			return false
		}
		rc, ok := r.nextRanked(nd)
		if !ok || len(nd.cands)+1 >= r.opt.MaxCorrectionsPerNode {
			r.release(nd)
			nd.rank = nil // drained or capped: free the survivors
		}
		if !ok {
			return false
		}
		nd.cands = append(nd.cands, rc)
	}
	return true
}

// nextRanked hands out the node's best correction not yet handed out. It
// runs the full-width screen of every pending survivor whose bound is at
// least the best exact rank known: any other survivor ranks strictly
// below that correction. The screens are correction time; their
// Simulations were charged when the survivor was screened.
func (r *runState) nextRanked(nd *node) (RankedCorrection, bool) {
	rk := nd.rank
	if rk.due() {
		t0 := time.Now()
		restorePhase := r.tr.Phase(r.ctx, "correction")
		if rk.ec == nil {
			e, _ := r.simulate(nd.corrs) // the node was expanded from these
			rk.ec = r.newExpandCtx(e)
		}
		ec := rk.ec
		for rk.due() {
			p := rk.pending[0]
			rk.pending = rk.pending[1:]
			sr := r.rankTrial(ec, p.c)
			r.countTrial(sr)
			if sr.outcome == screenKept {
				rk.insert(rankEntry{rc: r.rankCorrection(ec, p.c, sr), idx: p.idx})
			}
		}
		r.res.Stats.CorrTime += time.Since(t0)
		restorePhase()
	}
	if len(rk.ready) == 0 {
		return RankedCorrection{}, false
	}
	top := rk.ready[len(rk.ready)-1]
	rk.ready = rk.ready[:len(rk.ready)-1]
	return top.rc, true
}

// due reports whether the best pending survivor needs its full-width
// screen: its bound is at least the best exact rank not yet handed out.
func (rk *ranking) due() bool {
	return len(rk.pending) > 0 && (len(rk.ready) == 0 || rk.pending[0].bound >= rk.ready[len(rk.ready)-1].rc.Rank)
}

// insert adds an exactly ranked entry to ready, keeping it worst first.
func (rk *ranking) insert(e rankEntry) {
	i := sort.Search(len(rk.ready), func(k int) bool { return rk.ready[k].before(&e) })
	rk.ready = append(rk.ready, rankEntry{})
	copy(rk.ready[i+1:], rk.ready[i:])
	rk.ready[i] = e
}

// screenLazy is the first-solution correction screen: the Theorem-1 test
// and, for each survivor, its bound from the Verr view (verrTrial), which
// reads the row the Theorem-1 test left in r.rows.cand. Every survivor is
// charged its one simulation here, exactly as the eager screen charges it,
// so counted budgets cut at the same candidate. When the Verr view is the
// full view a propagating full-width trial ranks exactly and nothing is
// left pending.
func (r *runState) screenLazy(ec *expandCtx, lines []scoredLine) *ranking {
	inPlace := ec.verr.e == ec.full.e
	var ready []rankEntry
	var pending []pendingCorr
	idx := 0
	for _, sl := range lines {
		if r.halted {
			break
		}
		r.screenLine(ec, sl.l, func(corr Correction) {
			r.res.Stats.Simulations++
			idx++
			if inPlace {
				sr := r.fullTrial(ec, corr)
				r.countTrial(sr)
				if sr.outcome == screenKept {
					ready = append(ready, rankEntry{rc: r.rankCorrection(ec, corr, sr), idx: idx})
				}
				return
			}
			sr := r.verrTrial(ec, corr)
			pending = append(pending, pendingCorr{c: corr, idx: idx, bound: r.rankCorrection(ec, corr, sr).Rank})
		})
	}
	if ec.verr.e != ec.full.e {
		r.releaseEngine(ec.verr.e)
	}
	ec.verr = vecView{} // the Verr engine and its rows are done with
	return r.newRanking(ec, ready, pending)
}

// verrTrial counts what the bound needs for the candidate row theorem1 left
// in r.rows.cand: the erroneous bits it rectifies and the failing vectors it
// fixes. Both count only failing vectors, so they equal the full-width
// screen's counts; newFails stays 0 and the outcome kept, which makes
// h3score 1 and the rank the bound. Single-target corrections are scored
// from the Verr view's observability rows, multi-target ones propagated.
func (r *runState) verrTrial(ec *expandCtx, corr Correction) screenResult {
	if _, ok := corr.(multiTargeter); ok {
		return r.verrPropagate(ec, corr)
	}
	sr := r.rowTrial(ec, &ec.verr, corr.Target())
	return screenResult{outcome: screenKept, rect: sr.rect, fixes: sr.fixes}
}

// verrPropagate is verrTrial by propagation on the Verr engine.
func (r *runState) verrPropagate(ec *expandCtx, corr Correction) screenResult {
	v := &ec.verr
	e := v.e
	rect := 0
	for _, x := range trialRow(e, corr, r.rows.cand[:e.W]) {
		if i := ec.poIndex[x]; i >= 0 {
			rect += rectifiedBits(e, x, v.diff[i], v.spec[i])
		}
	}
	return screenResult{outcome: screenKept, rect: int32(rect), fixes: int32(fixedVectors(e, &r.rows, v))}
}

// rankTrial is the full-width screen of a pending survivor, giving its
// outcome and exact rank: a local NewValues on the full engine into
// r.rows.cand, scored from the full view's observability rows. Multi-target
// corrections are propagated (screenTrial).
func (r *runState) rankTrial(ec *expandCtx, corr Correction) screenResult {
	if _, ok := corr.(multiTargeter); ok {
		return r.screenTrial(ec, corr)
	}
	corr.NewValues(ec.full.e, r.rows.cand[:ec.full.e.W])
	return r.rowTrial(ec, &ec.full, corr.Target())
}
