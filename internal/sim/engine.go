package sim

import (
	"slices"

	"dedc/internal/circuit"
	"dedc/internal/telemetry"
)

// Engine holds a base parallel-pattern simulation of a circuit and supports
// event-driven trials: force candidate values onto a single line, propagate
// the difference through the fanout cone, inspect the resulting values, and
// discard everything in O(changed lines) — the base state is untouched.
//
// Trials are the inner loop of the diagnosis algorithm (thousands per
// iteration), so the engine avoids allocation: scratch rows are carved from
// one slab and reused across trials via epoch stamps.
//
// An engine owns its value and scratch rows. Reset rebuilds an engine for
// another circuit in the same storage, so any row or slice read from it
// before the Reset (BaseVal, Values, TrialVal, Changed, ConstRow) may be
// overwritten by the rebuild. An owner that hands an engine on to be
// Reset has released it and must not read it, or anything read from it,
// again.
type Engine struct {
	C *circuit.Circuit
	N int // pattern count
	W int // words per row

	val     Matrix // base values, one row per line
	scratch Matrix // trial values, one row per line

	stamp   []uint32 // epoch when scratch[l] was last written
	queued  []uint32 // epoch when l was last enqueued
	pinned  []uint32 // epoch when l was force-pinned (drain must not re-evaluate)
	epoch   uint32
	changed []circuit.Line // lines whose trial value differs from base

	levels  []int32
	fanout  [][]circuit.Line
	buckets [][]circuit.Line // propagation worklist indexed by level
	faninV  [][]uint64       // reusable fanin gather buffer
	comp    [][]uint64       // reusable complemented-pin rows (grown on demand)

	zeroRow []uint64
	onesRow []uint64

	// Trial-loop telemetry. Both are nil by default (a nil *Counter no-ops),
	// so the only disabled-path cost is one predictable branch per trial —
	// never per event. Wire them with Instrument; Reset keeps them.
	CTrials *telemetry.Counter // trials run (all Trial* entry points): propagations, not screened candidates
	CEvents *telemetry.Counter // lines re-evaluated across all trials
}

// Instrument wires the engine's trial counters to reg ("sim.trials",
// "sim.events"). A nil registry detaches them again.
func (e *Engine) Instrument(reg *telemetry.Registry) {
	e.CTrials = reg.Counter("sim.trials")
	e.CEvents = reg.Counter("sim.events")
}

// ConstRow returns a shared all-zero or all-one value row (W words). Callers
// must not mutate it.
func (e *Engine) ConstRow(v bool) []uint64 {
	if v {
		if e.onesRow == nil {
			e.onesRow = make([]uint64, e.W)
			for i := range e.onesRow {
				e.onesRow[i] = ^uint64(0)
			}
		}
		return e.onesRow
	}
	if e.zeroRow == nil {
		e.zeroRow = make([]uint64, e.W)
	}
	return e.zeroRow
}

// NewEngine simulates the circuit over the given input patterns and returns
// an engine ready for trials. pi has one row per PI in circuit PI order.
func NewEngine(c *circuit.Circuit, pi [][]uint64, n int) *Engine {
	e := &Engine{}
	e.Reset(c, pi, n)
	return e
}

// epochLimit is the epoch past which Reset clears the stamps and restarts
// the count, far below the point where a uint32 epoch would wrap onto
// stamps still in the arrays.
const epochLimit = 1 << 31

// Reset rebuilds e as NewEngine(c, pi, n) would, in e's own storage: the
// value and scratch slabs, the stamp, queue and pin marks, the level
// buckets and the fanin buffer are reused, and grow only when c has more
// lines or n needs more words than they hold. The result matches a fresh
// engine bit for bit, tail bits included, because the simulation
// overwrites every value word and a scratch row is read only after a trial
// writes it. The epoch carries forward, so no stamp, queue mark or pin left
// by an earlier trial equals the new epoch. Everything read from e before
// the call is invalid after it (see Engine).
func (e *Engine) Reset(c *circuit.Circuit, pi [][]uint64, n int) {
	lines, w := c.NumLines(), Words(n)
	if w != e.W {
		e.zeroRow, e.onesRow, e.comp = nil, nil, nil
	}
	e.C, e.N, e.W = c, n, w
	simulateRows(nil, c, e.val.Rows(lines, w), pi, w)
	e.scratch.Rows(lines, w)
	if e.epoch >= epochLimit {
		clear(e.stamp[:cap(e.stamp)])
		clear(e.queued[:cap(e.queued)])
		clear(e.pinned[:cap(e.pinned)])
		e.epoch = 0
	}
	e.epoch++
	// Reused marks keep their old epochs, all below the new one.
	e.stamp = slices.Grow(e.stamp[:0], lines)[:lines]
	e.queued = slices.Grow(e.queued[:0], lines)[:lines]
	e.pinned = slices.Grow(e.pinned[:0], lines)[:lines]
	e.changed = e.changed[:0]
	e.levels = c.Levels()
	e.fanout = c.Fanout()
	maxLevel := int32(0)
	for _, lv := range e.levels {
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	e.buckets = slices.Grow(e.buckets[:0], int(maxLevel)+1)[:maxLevel+1] // drained buckets are empty
}

// Poison overwrites every value and scratch row of e with word. It exists
// for owners that recycle engines: poisoning an engine as it is released
// makes any later read of it visible as garbage.
func (e *Engine) Poison(word uint64) {
	for _, rows := range [][][]uint64{e.val.rows, e.scratch.rows} {
		for _, row := range rows {
			for i := range row {
				row[i] = word
			}
		}
	}
}

// BaseVal returns the base (no-trial) value row of line l. Callers must not
// mutate it.
func (e *Engine) BaseVal(l circuit.Line) []uint64 { return e.val.rows[l] }

// Values returns the full base value matrix (one row per line). Callers must
// not mutate it.
func (e *Engine) Values() [][]uint64 { return e.val.rows }

// TrialVal returns the value row of l under the current trial: the forced or
// propagated trial value when l changed, the base value otherwise.
func (e *Engine) TrialVal(l circuit.Line) []uint64 {
	if e.stamp[l] == e.epoch {
		return e.scratch.rows[l]
	}
	return e.val.rows[l]
}

// Changed returns the lines whose value differs from base under the current
// trial, in propagation (roughly topological) order. The slice is reused by
// the next trial.
func (e *Engine) Changed() []circuit.Line { return e.changed }

// Trial forces the given value row onto line l, event-propagates the
// difference through the fanout cone and returns the changed lines
// (including l itself if the forced value differs from base). The base state
// is unaffected; the results stay readable through TrialVal until the next
// Trial call.
func (e *Engine) Trial(l circuit.Line, forced []uint64) []circuit.Line {
	changed := e.trial(l, forced)
	e.CTrials.Inc()
	e.CEvents.Add(int64(len(changed)))
	return changed
}

// trial is the uninstrumented body of Trial. The split keeps the counter
// increments out of the reference path so the telemetry overhead benchmark
// can compare instrumented-but-disabled against truly counter-free code.
func (e *Engine) trial(l circuit.Line, forced []uint64) []circuit.Line {
	e.epoch++
	e.changed = e.changed[:0]
	if equalWords(forced, e.val.rows[l], e.W) {
		return e.changed
	}
	copy(e.scratch.rows[l], forced[:e.W])
	e.stamp[l] = e.epoch
	e.changed = append(e.changed, l)
	e.enqueueFanout(l)
	e.drain(int(e.levels[l]) + 1)
	return e.changed
}

// TrialMulti forces value rows onto several lines at once and propagates —
// the primitive behind multi-node fault models such as bridging faults,
// where a wired-AND/OR changes two nets simultaneously. lines and forced
// must align; forced rows are copied.
func (e *Engine) TrialMulti(lines []circuit.Line, forced [][]uint64) []circuit.Line {
	e.epoch++
	e.changed = e.changed[:0]
	minLevel := int32(1 << 30)
	for i, l := range lines {
		// Pin every forced line — even one whose forced value equals its
		// base value must not be re-evaluated when propagation from another
		// forced line washes over it.
		copy(e.scratch.rows[l], forced[i][:e.W])
		e.stamp[l] = e.epoch
		e.pinned[l] = e.epoch
		if equalWords(forced[i], e.val.rows[l], e.W) {
			continue
		}
		e.changed = append(e.changed, l)
		e.enqueueFanout(l)
		if e.levels[l] < minLevel {
			minLevel = e.levels[l]
		}
	}
	e.CTrials.Inc()
	if len(e.changed) == 0 {
		return e.changed
	}
	e.drain(int(minLevel) + 1)
	e.CEvents.Add(int64(len(e.changed)))
	return e.changed
}

// TrialEvalPin is like Trial but computes the forced value by evaluating
// the gate driving l (type t, fanins fin) over the base values with an
// explicit value row substituted for one pin. It models fanout-branch
// stuck-at faults: pin of that gate reads a constant while the stem keeps
// its true value. The dense (pin, row) form replaces an earlier map-valued
// argument that allocated on every call of the correction-screening hot
// loop.
func (e *Engine) TrialEvalPin(l circuit.Line, t circuit.GateType, fin []circuit.Line, pin int, row []uint64) []circuit.Line {
	e.epoch++
	e.changed = e.changed[:0]
	e.faninV = e.faninV[:0]
	for p, f := range fin {
		if p == pin {
			e.faninV = append(e.faninV, row)
		} else {
			e.faninV = append(e.faninV, e.TrialVal(f))
		}
	}
	out := e.scratch.rows[l]
	EvalGateInto(t, out, e.W, e.faninV...)
	e.CTrials.Inc()
	if equalWords(out, e.val.rows[l], e.W) {
		return e.changed
	}
	e.stamp[l] = e.epoch
	e.changed = append(e.changed, l)
	e.enqueueFanout(l)
	e.drain(int(e.levels[l]) + 1)
	e.CEvents.Add(int64(len(e.changed)))
	return e.changed
}

// EvalCandidate computes, into dst, the output row a hypothetical gate
// (type t, fanins fin, optional per-pin complements, optional output
// complement) would produce over the current BASE values — one local
// simulation step with no propagation. It builds the candidate rows of the
// Theorem-1 screen and of its survivors' trials; the design-error model's
// wire candidates, most of all candidates, are screened without it by one
// word op each over base rows (errmodel.Screen).
func (e *Engine) EvalCandidate(dst []uint64, t circuit.GateType, fin []circuit.Line, finComp []bool, outComp bool) {
	e.faninV = e.faninV[:0]
	for _, f := range fin {
		e.faninV = append(e.faninV, e.val.rows[f])
	}
	e.complementPins(finComp)
	EvalGateInto(t, dst, e.W, e.faninV...)
	if outComp {
		invertRow(dst[:e.W])
	}
}

// complementPins replaces the faninV rows of complemented pins with engine-
// owned scratch rows holding the complement. The scratch is reused across
// calls, keeping candidate screening allocation-free.
func (e *Engine) complementPins(finComp []bool) {
	if finComp == nil {
		return
	}
	nc := 0
	for p, comp := range finComp {
		if !comp {
			continue
		}
		if nc == len(e.comp) {
			e.comp = append(e.comp, make([]uint64, e.W))
		}
		row := e.comp[nc]
		nc++
		src := e.faninV[p]
		for i := 0; i < e.W; i++ {
			row[i] = ^src[i]
		}
		e.faninV[p] = row
	}
}

// EvalCandidatePin is EvalCandidate with an explicit value row substituted
// for one pin (the branch stuck-at form).
func (e *Engine) EvalCandidatePin(dst []uint64, t circuit.GateType, fin []circuit.Line, pin int, row []uint64) {
	e.faninV = e.faninV[:0]
	for p, f := range fin {
		if p == pin {
			e.faninV = append(e.faninV, row)
		} else {
			e.faninV = append(e.faninV, e.val.rows[f])
		}
	}
	EvalGateInto(t, dst, e.W, e.faninV...)
}

func (e *Engine) enqueueFanout(l circuit.Line) {
	for _, r := range e.fanout[l] {
		if e.queued[r] != e.epoch {
			e.queued[r] = e.epoch
			e.buckets[e.levels[r]] = append(e.buckets[e.levels[r]], r)
		}
	}
}

// drain processes the level buckets in ascending order starting at from.
func (e *Engine) drain(from int) {
	for lv := from; lv < len(e.buckets); lv++ {
		bucket := e.buckets[lv]
		for i := 0; i < len(bucket); i++ {
			l := bucket[i]
			if e.pinned[l] == e.epoch {
				continue // force-pinned lines keep their trial value
			}
			g := &e.C.Gates[l]
			out := e.scratch.rows[l]
			e.faninV = e.faninV[:0]
			for _, f := range g.Fanin {
				e.faninV = append(e.faninV, e.TrialVal(f))
			}
			EvalGateInto(g.Type, out, e.W, e.faninV...)
			if equalWords(out, e.val.rows[l], e.W) {
				continue
			}
			e.stamp[l] = e.epoch
			e.changed = append(e.changed, l)
			for _, r := range e.fanout[l] {
				if e.queued[r] != e.epoch {
					e.queued[r] = e.epoch
					e.buckets[e.levels[r]] = append(e.buckets[e.levels[r]], r)
				}
			}
		}
		e.buckets[lv] = bucket[:0]
	}
}

func equalWords(a, b []uint64, w int) bool {
	for i := 0; i < w; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
