package diagnose

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"dedc/internal/telemetry"
)

// Checkpoint is the iteration frontier a crashed run left in its journal: the
// complete resumable state of a PolicyRounds search at a round boundary.
// Nodes are not serialized directly — a path of correction strings is enough,
// because re-expanding the same path over the same inputs deterministically
// reproduces the node's ranked candidate list. Resuming therefore re-proves
// every replayed step by fresh simulation instead of trusting bytes on disk.
type Checkpoint struct {
	// Step and Round locate the resume point in the schedule.
	Step      int `json:"step"`
	Round     int `json:"round"`
	NodesStep int `json:"nodes_step"` // nodes expanded so far in this step
	MinDepth  int `json:"min_depth"`  // smallest solution size found (0 = none)
	// Seed, Exact and MaxErrors fingerprint the run configuration; a resume
	// under a different configuration is rejected rather than silently
	// continued against the wrong tree.
	Seed      int64 `json:"seed"`
	Exact     bool  `json:"exact"`
	MaxErrors int   `json:"max_errors"`
	// Frontier holds the open nodes of the current round in traversal order.
	Frontier []FrontierEntry `json:"frontier"`
	// Solutions holds already-found solutions as correction-string paths in
	// tree order, replayed (and re-verified) on resume.
	Solutions [][]string `json:"solutions"`
	// Seen is the sorted dedup-set of expanded correction multisets.
	Seen []string `json:"seen"`
	// Stats is the work accounting at checkpoint time, folded into the
	// resumed run so counted budgets span the crash.
	Stats Stats `json:"stats"`
}

// FrontierEntry is one open node: the root-to-node correction path and the
// index of its next unexpanded ranked candidate.
type FrontierEntry struct {
	Path []string `json:"path"`
	Next int      `json:"next"`
}

// emitCheckpoint journals the resumable state at a round boundary. The
// journal flushes checkpoint events through to the writer before any of the
// round's work begins, so the state survives the death of the process — a
// SIGKILL at any later point loses at most one round. The write is not
// fsync'd, so it does not survive a power loss.
func (r *runState) emitCheckpoint(round int, frontier []*node, nodesStep int) {
	if r.tr == nil {
		return
	}
	cp := Checkpoint{
		Step:      r.stepIdx,
		Round:     round,
		NodesStep: nodesStep,
		MinDepth:  r.minDepth,
		Seed:      r.opt.Seed,
		Exact:     r.opt.Exact,
		MaxErrors: r.opt.MaxErrors,
		Frontier:  make([]FrontierEntry, len(frontier)),
		// Deterministic drops the wall-clock phase times: they would make
		// checkpoints (and hence journals) non-reproducible, and a resumed
		// run restarts its wall-clock budget anyway.
		Stats: r.res.Stats.Deterministic(),
	}
	for i, nd := range frontier {
		cp.Frontier[i] = FrontierEntry{Path: corrNames(nd.corrs), Next: nd.next}
	}
	for _, s := range r.res.Solutions {
		cp.Solutions = append(cp.Solutions, corrNames(s.Corrections))
	}
	cp.Seen = make([]string, 0, len(r.seen))
	for k := range r.seen {
		cp.Seen = append(cp.Seen, k)
	}
	sort.Strings(cp.Seen)
	r.tr.Event(r.ctx, telemetry.EventCheckpoint,
		telemetry.Int("step", cp.Step),
		telemetry.Int("round", cp.Round),
		telemetry.Attr{Key: "state", Value: cp})
}

// DecodeCheckpoint extracts the Checkpoint payload from a parsed journal
// checkpoint event, round-tripping the already-parsed attribute tree through
// JSON to regain the typed form.
func DecodeCheckpoint(pe telemetry.ParsedEvent) (*Checkpoint, error) {
	if pe.Event != telemetry.EventCheckpoint {
		return nil, fmt.Errorf("diagnose: event %q is not a checkpoint", pe.Event)
	}
	state, ok := pe.Attrs["state"]
	if !ok {
		return nil, fmt.Errorf("diagnose: checkpoint event (seq %d) has no state attribute", pe.Seq)
	}
	raw, err := json.Marshal(state)
	if err != nil {
		return nil, fmt.Errorf("diagnose: checkpoint state: %w", err)
	}
	// Strict decoding: a field name mangled on disk would otherwise decode
	// as an absent field — an empty frontier or no solutions — and resume
	// to a wrong answer instead of falling back to an earlier checkpoint.
	// No build has removed a checkpoint field, so checkpoints written by
	// earlier builds still decode.
	cp := &Checkpoint{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cp); err != nil {
		return nil, fmt.Errorf("diagnose: checkpoint state: %w", err)
	}
	if cp.Step < 0 || cp.Round < 1 {
		return nil, fmt.Errorf("diagnose: checkpoint has invalid step %d / round %d", cp.Step, cp.Round)
	}
	if len(cp.Frontier) == 0 {
		// Checkpoints are written only at rounds with open nodes.
		return nil, fmt.Errorf("diagnose: checkpoint (seq %d) has an empty frontier", pe.Seq)
	}
	return cp, nil
}

// restore rebuilds the runState from a checkpoint by deterministic replay:
// every frontier path and solution path is re-expanded from the pristine
// netlist (memoized on shared prefixes), so nothing enters the resumed run —
// least of all a reported solution — without being re-proven by fresh
// simulation. It returns an error when the journal does not replay against
// these inputs (wrong circuit, wrong vectors, tampered file).
func (r *runState) restore(cp *Checkpoint) error {
	memo := map[string]*node{}
	for i, sol := range cp.Solutions {
		nd, corrs, err := r.replayPath(sol, memo)
		if err != nil {
			return fmt.Errorf("diagnose: resume solution %d: %w", i, err)
		}
		if nd.fails != 0 {
			return fmt.Errorf("diagnose: resume solution %d %v still fails %d vectors; journal does not match these inputs", i, sol, nd.fails)
		}
		r.record(corrs)
	}
	frontier := make([]*node, 0, len(cp.Frontier))
	for i, fe := range cp.Frontier {
		nd, _, err := r.replayPath(fe.Path, memo)
		if err != nil {
			return fmt.Errorf("diagnose: resume frontier %d: %w", i, err)
		}
		next := fe.Next
		if next < 0 {
			next = 0
		}
		if next > 0 && !r.ensure(nd, next-1) {
			next = len(nd.cands)
		}
		nd.next = next
		frontier = append(frontier, nd)
	}
	for _, nd := range memo {
		r.release(nd)
	}
	r.seen = make(map[string]bool, len(cp.Seen))
	for _, k := range cp.Seen {
		r.seen[k] = true
	}
	if cp.MinDepth > 0 && (r.minDepth == 0 || cp.MinDepth < r.minDepth) {
		r.minDepth = cp.MinDepth
	}
	// Fold the crashed process's work accounting in after replay (so the
	// replay itself cannot instantly exhaust a counted budget) — the resumed
	// run's stats then cover the total work performed across both processes,
	// and counted budgets keep their meaning across the crash. Verified is
	// exempt: it reports this process's gate passes, which the replay above
	// already re-earned for every restored solution.
	verified := r.res.Stats.Verified
	r.res.Stats = r.res.Stats.Merge(cp.Stats)
	r.res.Stats.Verified = verified
	r.res.Stats.Schedule = r.params
	r.hasResume = true
	r.resumeFrontier = frontier
	r.resumeRound = cp.Round
	r.resumeNodes = cp.NodesStep
	return nil
}

// replayPath walks a correction-string path from the root, re-expanding each
// prefix (memoized by multiset key, so shared prefixes across frontier
// entries expand once) and resolving each step's string against the node's
// freshly recomputed ranked candidates.
func (r *runState) replayPath(path []string, memo map[string]*node) (*node, []Correction, error) {
	nd := memo[""]
	if nd == nil {
		nd = r.expandTraced(nil)
		memo[""] = nd
	}
	var corrs []Correction
	for depth, name := range path {
		if r.halted {
			return nil, nil, fmt.Errorf("replay interrupted: %s", r.haltStatus)
		}
		var found Correction
		for i := 0; r.ensure(nd, i); i++ {
			if c := nd.cands[i].C; c.String() == name {
				found = c
				break
			}
		}
		if found == nil {
			return nil, nil, fmt.Errorf("step %d: correction %q is not among the %d ranked candidates of its parent; journal does not match these inputs", depth, name, len(nd.cands))
		}
		corrs = append(corrs, found)
		key := setKey(corrs)
		child := memo[key]
		if child == nil {
			child = r.expandTraced(append([]Correction(nil), corrs...))
			memo[key] = child
		}
		nd = child
	}
	return nd, corrs, nil
}
