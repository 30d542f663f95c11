package diagnose

import (
	"math/bits"

	"dedc/internal/circuit"
	"dedc/internal/sim"
)

// Observability rows score first-solution corrections without propagating
// each one. A single-target correction changes one line l, and the
// simulation of one vector never reads another, so at each vector the
// correction either leaves l's bit alone, and every line keeps its base
// value, or complements it, and every line takes the value it has when l
// is complemented at every vector. One trial forcing ^BaseVal(l) therefore
// fixes, vector by vector, everything the screens count, and a candidate
// row cand is counted by masking those rows with d = cand ^ BaseVal(l).
// The counts are the propagating trial's exactly, so ranks, orders and
// tie-breaks are unchanged.

// obsRows are one target line's observability rows in one view, all at the
// view's width.
type obsRows struct {
	// rect is the bit-sliced per-vector count of erroneous PO bits the flip
	// rectifies: bit v of rect[k] is bit k of vector v's count.
	rect [][]uint64
	// fix marks the failing vectors the flip fully rectifies.
	fix []uint64
	// brk marks the passing vectors the flip makes fail, tail-masked. It is
	// zero in the Verr view, where every vector fails.
	brk []uint64
}

// observe returns l's observability rows in view v, building them on first
// use with one trial that complements l at every vector. The rows are kept
// in the view, so they are dropped with its engine.
func observe(rows *trialRows, ec *expandCtx, v *vecView, l circuit.Line) *obsRows {
	if o := v.obs[l]; o != nil {
		return o
	}
	e := v.e
	base := e.BaseVal(l)
	flip := rows.forced[:e.W]
	for w := range flip {
		flip[w] = ^base[w]
	}
	fb := make([]uint64, 2*e.W)
	o := &obsRows{fix: fb[:e.W:e.W], brk: fb[e.W:]}
	for _, x := range e.Trial(l, flip) {
		i := ec.poIndex[x]
		if i < 0 {
			continue
		}
		tv, bv, d := e.TrialVal(x), e.BaseVal(x), v.diff[i]
		for w := range o.brk {
			s := tv[w] ^ bv[w]
			o.brk[w] |= s &^ v.mask[w]
			// Add the vectors' rectified bits into the bit-sliced counter.
			for k, c := 0, s&d[w]; c != 0; k++ {
				if k == len(o.rect) {
					o.rect = append(o.rect, make([]uint64, e.W))
				}
				p := o.rect[k][w]
				o.rect[k][w] = p ^ c
				c &= p
			}
		}
	}
	o.brk[e.W-1] &= sim.TailMask(e.N)
	still := stillBad(e, rows, v)
	for w := range o.fix {
		o.fix[w] = v.mask[w] &^ still[w]
	}
	if v.obs == nil {
		v.obs = map[circuit.Line]*obsRows{}
	}
	v.obs[l] = o
	return o
}

// rowTrial screens the candidate row in r.rows.cand for line l in view v from
// l's observability rows: the same outcome and counts as propagating it.
// The row is unchanged, and nothing propagates, iff d is zero in every
// word, tail bits included.
func (r *runState) rowTrial(ec *expandCtx, v *vecView, l circuit.Line) screenResult {
	o := observe(&r.rows, ec, v, l)
	cand, base := r.rows.cand[:v.e.W], v.e.BaseVal(l)
	changed := false
	rect, fixes, newFails := 0, 0, 0
	for w := range cand {
		d := cand[w] ^ base[w]
		if d == 0 {
			continue
		}
		changed = true
		for k, p := range o.rect {
			rect += bits.OnesCount64(d&p[w]) << k
		}
		fixes += bits.OnesCount64(d & o.fix[w])
		newFails += bits.OnesCount64(d & o.brk[w])
	}
	switch {
	case !changed:
		return screenResult{outcome: screenNoChange}
	case r.h3Rejects(ec, newFails):
		return screenResult{outcome: screenNewFails}
	}
	return screenResult{outcome: screenKept, rect: int32(rect), newFails: int32(newFails), fixes: int32(fixes)}
}

// multiTargeter is a correction that forces its row onto several lines at
// once (bridging faults). Such corrections are propagated, not scored from
// rows.
type multiTargeter interface{ Targets() []circuit.Line }
