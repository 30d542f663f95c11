package tpg

import (
	"context"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/telemetry"
)

// PodemResult reports the outcome of one deterministic generation attempt.
type PodemResult int

// Generation outcomes.
const (
	TestFound  PodemResult = iota // a detecting assignment was produced
	Untestable                    // proven redundant (search space exhausted)
	Aborted                       // backtrack limit exceeded
)

// Podem is a deterministic test pattern generator for single stuck-at
// faults, implementing the classic PODEM algorithm: PI-only decisions,
// objective/backtrace guidance, five-valued (good/faulty ternary pair)
// implication, an X-path check, and chronological backtracking.
//
// Implication is event-driven and confined to the fault's relevant region —
// its fanout cone plus the cone's transitive fanin, the only lines the
// search reads. After a decision or a backtrack only the changed PIs'
// readers are re-evaluated, level by level, stopping wherever a line's
// good/faulty pair does not change. Every value the search reads is the one
// a full topological re-simulation would give, so the search makes the same
// decisions; see DESIGN.md "PODEM implication".
type Podem struct {
	C *circuit.Circuit
	// BacktrackLimit bounds the search per fault (default 2000).
	BacktrackLimit int
	// Ctx, when non-nil, is polled at bounded intervals inside Generate;
	// cancellation abandons the current fault with Aborted.
	Ctx context.Context

	// Backtracks accumulates the backtrack count across Generate calls.
	Backtracks int64
	// CBacktracks, when non-nil, receives the same increments (nil no-ops).
	CBacktracks *telemetry.Counter
	// Evals accumulates gate evaluations made by implication across
	// Generate calls; CEvals, when non-nil, receives the same increments.
	Evals  int64
	CEvals *telemetry.Counter

	ctxTick int
	t       *podemTables

	// Per-generator scratch, reused across faults so that Generate
	// allocates only the assignment it returns.
	assign  []v3           // current PI assignment
	val     []pv           // packed good/faulty values; current on the region only
	stamp   uint32         // epoch of the fault being generated
	inReg   []uint32       // == stamp: line is in the relevant region
	seen    []uint32       // == seenGen: visited by the X-path search
	seenGen uint32         // epoch of the X-path search
	cone    []circuit.Line // the fanout cone, topological order
	region  []circuit.Line // the relevant region, topological order
	conePOs []circuit.Line // primary outputs inside the cone
	stack   []decision
	work    []circuit.Line   // DFS stack for cone and X-path searches
	dirty   []circuit.Line   // PI lines assigned since the last implication
	queued  []bool           // line waits in a level bucket
	buckets [][]circuit.Line // pending re-evaluations, one bucket per level
	qhi     int32            // highest level with a pending re-evaluation

	// The fault being generated.
	root   circuit.Line // cone root: the stem line, or a branch's reader
	stemAt circuit.Line // stem fault line, NoLine for a branch fault
	pinAt  int          // faulted pin of root for a branch fault, else -1
	stuck  pv           // faulty-machine bit pair of the stuck value

	// afterImply, when non-nil, runs after every implication (tests only).
	afterImply func()
}

// podemTables are the per-circuit tables Generate reads: the topological
// order and position, levels, gate types, fanin and fanout, PI positions,
// PO marks and SCOAP measures. They are read-only inside Generate, so the
// fault-parallel driver in parallel.go builds them once and shares them
// across every worker's generator.
type podemTables struct {
	topo    []circuit.Line
	topoPos []int32
	level   []int32
	typ     []circuit.GateType
	fanin   [][]circuit.Line
	fanout  [][]circuit.Line
	piPos   []int32 // position in C.PIs, -1 for non-PI lines
	isPO    []bool
	scoap   *Scoap
}

func newPodemTables(c *circuit.Circuit) *podemTables {
	n := c.NumLines()
	t := &podemTables{
		topo:    c.Topo(),
		topoPos: make([]int32, n),
		level:   c.Levels(),
		typ:     make([]circuit.GateType, n),
		fanin:   make([][]circuit.Line, n),
		fanout:  c.Fanout(),
		piPos:   make([]int32, n),
		isPO:    make([]bool, n),
		scoap:   ComputeScoap(c),
	}
	for i, l := range t.topo {
		t.topoPos[l] = int32(i)
	}
	for i := range t.piPos {
		t.piPos[i] = -1
		t.typ[i] = c.Gates[i].Type
		t.fanin[i] = c.Gates[i].Fanin
	}
	for i, pi := range c.PIs {
		t.piPos[pi] = int32(i)
	}
	for _, po := range c.POs {
		t.isPO[po] = true
	}
	return t
}

// NewPodem prepares a generator for the circuit.
func NewPodem(c *circuit.Circuit) *Podem {
	return newPodemWith(c, newPodemTables(c))
}

// newPodemWith builds a generator with its own scratch around shared
// read-only tables.
func newPodemWith(c *circuit.Circuit, t *podemTables) *Podem {
	n := c.NumLines()
	depth := int32(0)
	for _, lv := range t.level {
		if lv > depth {
			depth = lv
		}
	}
	return &Podem{
		C:              c,
		BacktrackLimit: 2000,
		t:              t,
		assign:         make([]v3, len(c.PIs)),
		val:            make([]pv, n),
		inReg:          make([]uint32, n),
		seen:           make([]uint32, n),
		queued:         make([]bool, n),
		buckets:        make([][]circuit.Line, depth+1),
		qhi:            -1,
	}
}

type decision struct {
	pi      int
	value   v3
	flipped bool
}

// podemCheckInterval is how many decision-loop iterations Generate runs
// between context polls. Each iteration costs an implication pass, so a
// small interval keeps cancellation prompt without measurable overhead.
const podemCheckInterval = 64

// cancelled polls the generator's context at bounded intervals.
func (p *Podem) cancelled() bool {
	if p.Ctx == nil {
		return false
	}
	p.ctxTick++
	if p.ctxTick < podemCheckInterval {
		return false
	}
	p.ctxTick = 0
	return p.Ctx.Err() != nil
}

// Generate attempts to produce a test for fault ft. On TestFound, the
// returned assignment has one entry per PI: 0, 1, or x3 for don't-care.
func (p *Podem) Generate(ft fault.Fault) ([]v3, PodemResult) {
	evals0 := p.Evals
	p.prepare(ft)
	backtracks := 0
	defer func() {
		p.Backtracks += int64(backtracks)
		p.CBacktracks.Add(int64(backtracks))
		p.CEvals.Add(p.Evals - evals0)
	}()
	for {
		if p.cancelled() {
			return nil, Aborted
		}
		if p.detected() {
			out := make([]v3, len(p.assign))
			copy(out, p.assign)
			return out, TestFound
		}
		if p.testPossible(ft) {
			if obj, ok := p.objective(ft); ok {
				if pi, val, found := p.backtrace(obj); found {
					p.setPI(pi, val)
					p.stack = append(p.stack, decision{pi: pi, value: val})
					p.imply()
					continue
				}
			}
		}
		// No progress possible: backtrack.
		for {
			if len(p.stack) == 0 {
				return nil, Untestable
			}
			d := &p.stack[len(p.stack)-1]
			if !d.flipped {
				d.flipped = true
				d.value = not3(d.value)
				p.setPI(d.pi, d.value)
				backtracks++
				if backtracks > p.BacktrackLimit {
					return nil, Aborted
				}
				p.imply()
				break
			}
			p.setPI(d.pi, x3)
			p.stack = p.stack[:len(p.stack)-1]
		}
	}
}

// prepare resets the generator for fault ft: all PIs unassigned, the
// fault's cone and relevant region marked, and the region simulated once.
func (p *Podem) prepare(ft fault.Fault) {
	p.stamp++
	if p.stamp == 0 { // epoch wrapped: old marks could alias the new one
		clear(p.inReg)
		p.stamp = 1
	}
	for i := range p.assign {
		p.assign[i] = x3
	}
	p.stack = p.stack[:0]
	p.dirty = p.dirty[:0]
	p.stuck = pvOf[stuck(ft)] & pvBad
	if ft.IsStem() {
		p.root, p.stemAt, p.pinAt = ft.Line, ft.Line, -1
	} else {
		p.root, p.stemAt, p.pinAt = ft.Reader, circuit.NoLine, ft.Pin
	}

	// The fanout cone: a DFS over readers marks it, a topological scan from
	// the root collects it in order. Only cone lines are marked yet, and
	// none of them precedes the root.
	t := p.t
	p.inReg[p.root] = p.stamp
	p.work = append(p.work[:0], p.root)
	for len(p.work) > 0 {
		x := p.work[len(p.work)-1]
		p.work = p.work[:len(p.work)-1]
		for _, r := range t.fanout[x] {
			if p.inReg[r] != p.stamp {
				p.inReg[r] = p.stamp
				p.work = append(p.work, r)
			}
		}
	}
	p.cone, p.conePOs = p.cone[:0], p.conePOs[:0]
	last := int32(0)
	for i, l := range t.topo[t.topoPos[p.root]:] {
		if p.inReg[l] == p.stamp {
			p.cone = append(p.cone, l)
			last = t.topoPos[p.root] + int32(i)
			if t.isPO[l] {
				p.conePOs = append(p.conePOs, l)
			}
		}
	}

	// The region adds the cone's transitive fanin: a reverse topological
	// scan propagates membership to fanins, a forward one collects it.
	for i := last; i >= 0; i-- {
		l := t.topo[i]
		if p.inReg[l] != p.stamp {
			continue
		}
		for _, f := range t.fanin[l] {
			p.inReg[f] = p.stamp
		}
	}
	p.region = p.region[:0]
	for _, l := range t.topo[:last+1] {
		if p.inReg[l] == p.stamp {
			p.region = append(p.region, l)
			p.val[l] = p.eval(l)
		}
	}
	p.Evals += int64(len(p.region))
	if p.afterImply != nil {
		p.afterImply()
	}
}

// eval computes line l's packed value from its fanins and the assignment.
func (p *Podem) eval(l circuit.Line) pv {
	t := p.t
	var v pv
	if typ := t.typ[l]; typ == circuit.Input {
		v = pvOf[p.assign[t.piPos[l]]]
	} else if l == p.root {
		v = evalPV(typ, t.fanin[l], p.val, p.pinAt, p.stuck)
	} else {
		v = evalPV(typ, t.fanin[l], p.val, -1, 0)
	}
	if l == p.stemAt {
		v = v&pvGood | p.stuck
	}
	return v
}

// setPI assigns PI i; the next imply propagates the change.
func (p *Podem) setPI(i int, v v3) {
	p.assign[i] = v
	p.dirty = append(p.dirty, p.C.PIs[i])
}

// schedule queues l for re-evaluation when it lies in the region.
func (p *Podem) schedule(l circuit.Line) {
	if p.inReg[l] != p.stamp || p.queued[l] {
		return
	}
	p.queued[l] = true
	lv := p.t.level[l]
	p.buckets[lv] = append(p.buckets[lv], l)
	if lv > p.qhi {
		p.qhi = lv
	}
}

// imply propagates the PIs assigned since the last call. Lines are
// re-evaluated in level order, each after every fanin that changed, and a
// line whose value does not change schedules none of its readers.
func (p *Podem) imply() {
	for _, l := range p.dirty {
		p.schedule(l)
	}
	p.dirty = p.dirty[:0]
	for lv := int32(0); lv <= p.qhi; lv++ {
		b := p.buckets[lv]
		for _, l := range b {
			p.queued[l] = false
			v := p.eval(l)
			if v == p.val[l] {
				continue
			}
			p.val[l] = v
			for _, r := range p.t.fanout[l] {
				p.schedule(r)
			}
		}
		p.Evals += int64(len(b))
		p.buckets[lv] = b[:0]
	}
	p.qhi = -1
	if p.afterImply != nil {
		p.afterImply()
	}
}

func stuck(ft fault.Fault) v3 {
	if ft.Value {
		return t3
	}
	return f3
}

// detected reports whether any PO carries a D or D̄ (good and faulty both
// known and different). Only POs inside the cone can: elsewhere both
// machines compute the same values.
func (p *Podem) detected() bool {
	for _, po := range p.conePOs {
		if v := p.val[po]; v == pvD || v == pvDbar {
			return true
		}
	}
	return false
}

// testPossible reports whether some extension of the current assignment
// might still detect the fault: the fault can still be excited, and an
// X-path leads from the cone root to a PO through lines not yet settled
// fault-free (good and faulty both known and equal). Any detecting
// extension carries D or D̄ along such a path, and a settled line stays
// settled under every extension, so a false answer proves the subtree
// below holds no test.
func (p *Podem) testPossible(ft fault.Fault) bool {
	if _, possible := p.activation(ft); !possible {
		return false
	}
	p.seenGen++
	if p.seenGen == 0 {
		clear(p.seen)
		p.seenGen = 1
	}
	p.work = append(p.work[:0], p.root)
	p.seen[p.root] = p.seenGen
	for len(p.work) > 0 {
		x := p.work[len(p.work)-1]
		p.work = p.work[:len(p.work)-1]
		if v := p.val[x]; v == pvOne || v == pvZero {
			continue
		}
		if p.t.isPO[x] {
			return true
		}
		for _, r := range p.t.fanout[x] {
			if p.seen[r] != p.seenGen {
				p.seen[r] = p.seenGen
				p.work = append(p.work, r)
			}
		}
	}
	return false
}

// activation reports whether the fault is currently excited, and whether it
// still can be.
func (p *Podem) activation(ft fault.Fault) (active, possible bool) {
	g := good(p.val[ft.Line])
	want := not3(stuck(ft))
	if g == want {
		return true, true
	}
	if g == x3 {
		return false, true
	}
	return false, false
}

// objective returns the next (line, value) goal: excite the fault, then
// advance the D-frontier.
func (p *Podem) objective(ft fault.Fault) (obj struct {
	line circuit.Line
	val  v3
}, ok bool) {
	active, possible := p.activation(ft)
	if !possible {
		return obj, false
	}
	if !active {
		obj.line = ft.Line
		obj.val = not3(stuck(ft))
		return obj, true
	}
	// D-frontier: a gate in the fault cone whose output good==bad or
	// unknown-equal is of no use; we need gates where some input differs and
	// the output is still unknown on either machine.
	t := p.t
	for _, l := range p.cone {
		typ := t.typ[l]
		if typ == circuit.Input {
			continue
		}
		if v := p.val[l]; v&pvGood != 0 && v&pvBad != 0 {
			continue // both machines known
		}
		hasD := false
		for pin, f := range t.fanin[l] {
			v := p.val[f]
			if l == p.root && pin == p.pinAt {
				v = v&pvGood | p.stuck
			}
			if v == pvD || v == pvDbar {
				hasD = true
				break
			}
		}
		if !hasD {
			continue
		}
		// Set an unknown side input to the non-controlling value, picking
		// the SCOAP-easiest one.
		cv, hasCtrl := typ.ControllingValue()
		target := t3
		if hasCtrl && cv {
			target = f3
		}
		pick := circuit.NoLine
		var bestCost int32
		for _, f := range t.fanin[l] {
			if good(p.val[f]) != x3 {
				continue
			}
			cost := t.scoap.CC(f, target == t3)
			if pick == circuit.NoLine || cost < bestCost {
				pick, bestCost = f, cost
			}
		}
		if pick != circuit.NoLine {
			obj.line = pick
			obj.val = target
			return obj, true
		}
	}
	return obj, false
}

// backtrace maps an objective to a PI assignment through X-valued lines.
func (p *Podem) backtrace(obj struct {
	line circuit.Line
	val  v3
}) (pi int, val v3, ok bool) {
	l, v := obj.line, obj.val
	t := p.t
	for steps := 0; steps < p.C.NumLines()+8; steps++ {
		typ := t.typ[l]
		if typ == circuit.Input {
			i := int(t.piPos[l])
			if p.assign[i] != x3 {
				return 0, 0, false // already decided; objective unreachable
			}
			return i, v, true
		}
		if typ == circuit.Const0 || typ == circuit.Const1 {
			return 0, 0, false
		}
		if typ.Inverting() {
			v = not3(v)
		}
		// Choose an X input with SCOAP guidance: when one controlling input
		// suffices, take the EASIEST to control; when every input must reach
		// the non-controlling value, attack the HARDEST first (so failures
		// surface before effort is wasted on the easy ones).
		cv, hasCtrl := typ.ControllingValue()
		wantEasiest := hasCtrl && (v == t3) == cv
		next := circuit.NoLine
		var bestCost int32
		for _, f := range t.fanin[l] {
			if good(p.val[f]) != x3 {
				continue
			}
			cost := t.scoap.CC(f, v == t3)
			if next == circuit.NoLine ||
				(wantEasiest && cost < bestCost) ||
				(!wantEasiest && cost > bestCost) {
				next, bestCost = f, cost
			}
		}
		if next == circuit.NoLine {
			return 0, 0, false
		}
		switch typ {
		case circuit.Xor, circuit.Xnor:
			// Heuristic: aim for the cheaper value on the chosen input; the
			// implication pass sorts out the real parity.
			if t.scoap.CC0[next] <= t.scoap.CC1[next] {
				v = f3
			} else {
				v = t3
			}
		}
		l = next
	}
	return 0, 0, false
}
