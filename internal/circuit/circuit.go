// Package circuit provides the gate-level netlist data structures shared by
// every other package in this repository: gates, lines, fanout bookkeeping,
// levelization, cone extraction and the ISCAS-style line accounting used to
// report circuit sizes in the experiment tables.
//
// A circuit is a DAG of gates. Every gate drives exactly one output net,
// identified by a Line, which is simply the gate's index in the Gates slice.
// Primary inputs are pseudo-gates of type Input with no fanin. Flip-flops
// (type DFF) are allowed so that full-scan sequential circuits can be
// represented; package scan converts them to a combinational view.
package circuit

import (
	"errors"
	"fmt"
	"sort"
)

// Sentinel errors for boundary validation. Errors returned by Validate and
// TopoChecked wrap these, so callers can classify failures with errors.Is
// without parsing messages.
var (
	// ErrInvalidNetlist marks structural ill-formedness: illegal fanin
	// arities, out-of-range references, inconsistent PI bookkeeping.
	ErrInvalidNetlist = errors.New("invalid netlist")
	// ErrCombinationalCycle marks a cycle not broken by a state element.
	ErrCombinationalCycle = errors.New("combinational cycle detected")
)

// GateType enumerates the gate library. The diagnosis algorithm of the paper
// considers NOT, BUF, AND, NAND, OR and NOR; XOR and XNOR are supported by
// the simulator but, following the paper, generated circuits build XOR
// functions out of NAND/NOR structures. Const0/Const1 exist so that stuck-at
// corrections can be materialized structurally.
type GateType uint8

// Gate types. Input marks a primary input pseudo-gate; DFF marks a state
// element (D flip-flop) in sequential circuits.
const (
	Input GateType = iota
	Const0
	Const1
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	DFF
	numGateTypes
)

var gateNames = [...]string{
	Input:  "INPUT",
	Const0: "CONST0",
	Const1: "CONST1",
	Buf:    "BUF",
	Not:    "NOT",
	And:    "AND",
	Nand:   "NAND",
	Or:     "OR",
	Nor:    "NOR",
	Xor:    "XOR",
	Xnor:   "XNOR",
	DFF:    "DFF",
}

// String returns the conventional upper-case name of the gate type.
func (t GateType) String() string {
	if int(t) < len(gateNames) {
		return gateNames[t]
	}
	return fmt.Sprintf("GateType(%d)", int(t))
}

// Valid reports whether t is one of the defined gate types.
func (t GateType) Valid() bool { return t < numGateTypes }

// MinFanin returns the minimum legal number of fanins for the type.
func (t GateType) MinFanin() int {
	switch t {
	case Input, Const0, Const1:
		return 0
	case Buf, Not, DFF:
		return 1
	default:
		return 2
	}
}

// MaxFanin returns the maximum legal number of fanins for the type, or -1
// when unbounded.
func (t GateType) MaxFanin() int {
	switch t {
	case Input, Const0, Const1:
		return 0
	case Buf, Not, DFF:
		return 1
	default:
		return -1
	}
}

// HasControlling reports whether the gate type has a controlling input value
// (AND/NAND control on 0, OR/NOR control on 1). Following the paper's
// convention, BUF and NOT inputs always count as controlling.
func (t GateType) HasControlling() bool {
	switch t {
	case And, Nand, Or, Nor, Buf, Not:
		return true
	}
	return false
}

// ControllingValue returns the controlling input value of the type and
// whether one exists. For BUF/NOT every value is controlling; the returned
// value is unused in that case and ok is still true.
func (t GateType) ControllingValue() (v bool, ok bool) {
	switch t {
	case And, Nand:
		return false, true
	case Or, Nor:
		return true, true
	case Buf, Not:
		return false, true
	}
	return false, false
}

// Inverting reports whether the gate type inverts its "natural" AND/OR core
// (NAND, NOR, NOT, XNOR).
func (t GateType) Inverting() bool {
	switch t {
	case Not, Nand, Nor, Xnor:
		return true
	}
	return false
}

// InversionOf returns the gate type computing the complement function, and
// whether such a type exists in the library.
func (t GateType) InversionOf() (GateType, bool) {
	switch t {
	case Buf:
		return Not, true
	case Not:
		return Buf, true
	case And:
		return Nand, true
	case Nand:
		return And, true
	case Or:
		return Nor, true
	case Nor:
		return Or, true
	case Xor:
		return Xnor, true
	case Xnor:
		return Xor, true
	case Const0:
		return Const1, true
	case Const1:
		return Const0, true
	}
	return t, false
}

// Line identifies a net: the output of the gate with the same index.
type Line int32

// NoLine is the invalid line sentinel.
const NoLine Line = -1

// Gate is a single netlist node. Fanin lists the lines feeding the gate,
// in pin order. Name is optional and used by the .bench reader/writer.
type Gate struct {
	Type  GateType
	Fanin []Line
	Name  string
}

// Circuit is a gate-level netlist. The zero value is an empty circuit ready
// for AddGate calls. Derived structures (fanout, levels, topological order)
// are built lazily and invalidated by mutation.
type Circuit struct {
	Gates []Gate
	PIs   []Line
	POs   []Line

	// Lazily derived; nil when stale.
	fanout [][]Line
	level  []int32
	topo   []Line
}

// New returns an empty circuit with capacity hints.
func New(gateCap int) *Circuit {
	return &Circuit{Gates: make([]Gate, 0, gateCap)}
}

// NumGates returns the number of gates including primary-input pseudo-gates.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumLines is an alias of NumGates: every gate drives exactly one stem line.
func (c *Circuit) NumLines() int { return len(c.Gates) }

// AddGate appends a gate and returns its output line. Derived data is
// invalidated.
func (c *Circuit) AddGate(t GateType, fanin ...Line) Line {
	c.invalidate()
	c.Gates = append(c.Gates, Gate{Type: t, Fanin: fanin})
	l := Line(len(c.Gates) - 1)
	if t == Input {
		c.PIs = append(c.PIs, l)
	}
	return l
}

// AddNamedGate appends a gate with a symbolic name and returns its line.
func (c *Circuit) AddNamedGate(name string, t GateType, fanin ...Line) Line {
	l := c.AddGate(t, fanin...)
	c.Gates[l].Name = name
	return l
}

// AddPI appends a primary input with the given name.
func (c *Circuit) AddPI(name string) Line { return c.AddNamedGate(name, Input) }

// MarkPO records line l as a primary output. A line may be marked at most
// once; duplicate marks are ignored.
func (c *Circuit) MarkPO(l Line) {
	for _, p := range c.POs {
		if p == l {
			return
		}
	}
	c.POs = append(c.POs, l)
}

// Type returns the gate type driving line l.
func (c *Circuit) Type(l Line) GateType { return c.Gates[l].Type }

// Fanin returns the fanin slice of the gate driving line l. The caller must
// not mutate it; use SetFanin and friends.
func (c *Circuit) Fanin(l Line) []Line { return c.Gates[l].Fanin }

// Name returns the symbolic name of line l, or a synthetic "n<idx>" when the
// gate is unnamed.
func (c *Circuit) Name(l Line) string {
	if n := c.Gates[l].Name; n != "" {
		return n
	}
	return fmt.Sprintf("n%d", int(l))
}

// SetType changes the gate type of line l, invalidating derived data.
func (c *Circuit) SetType(l Line, t GateType) {
	c.invalidate()
	c.Gates[l].Type = t
}

// SetFanin replaces pin p of the gate driving l with src.
func (c *Circuit) SetFanin(l Line, p int, src Line) {
	c.invalidate()
	c.Gates[l].Fanin[p] = src
}

// AppendFanin adds src as a new last pin of the gate driving l.
func (c *Circuit) AppendFanin(l Line, src Line) {
	c.invalidate()
	c.Gates[l].Fanin = append(c.Gates[l].Fanin, src)
}

// RemoveFanin deletes pin p of the gate driving l, preserving pin order.
func (c *Circuit) RemoveFanin(l Line, p int) {
	c.invalidate()
	f := c.Gates[l].Fanin
	c.Gates[l].Fanin = append(f[:p:p], f[p+1:]...)
}

func (c *Circuit) invalidate() {
	c.fanout = nil
	c.level = nil
	c.topo = nil
}

// cloneSpare is the Gates capacity Clone leaves past the copied gates, so
// the few lines a correction adds (an inverter, a stuck-at constant) append
// without copying the gate array again.
const cloneSpare = 8

// Clone returns a deep structural copy of the circuit. Derived data is not
// copied and will be rebuilt on demand. All fanins are copied into one
// slab, each gate's capped at its length, so appending a pin to one gate
// reallocates that gate's fanins rather than overwriting the next gate's.
func (c *Circuit) Clone() *Circuit {
	pins := 0
	for _, g := range c.Gates {
		pins += len(g.Fanin)
	}
	slab := make([]Line, 0, pins)
	nc := &Circuit{
		Gates: make([]Gate, len(c.Gates), len(c.Gates)+cloneSpare),
		PIs:   append([]Line(nil), c.PIs...),
		POs:   append([]Line(nil), c.POs...),
	}
	for i, g := range c.Gates {
		var fin []Line
		if len(g.Fanin) > 0 {
			at := len(slab)
			slab = append(slab, g.Fanin...)
			fin = slab[at:len(slab):len(slab)]
		}
		nc.Gates[i] = Gate{Type: g.Type, Fanin: fin, Name: g.Name}
	}
	return nc
}

// Fanout returns, for every line, the list of lines whose gate reads it.
// A reader appearing on k pins is listed k times. The result is cached.
func (c *Circuit) Fanout() [][]Line {
	if c.fanout != nil {
		return c.fanout
	}
	fo := make([][]Line, len(c.Gates))
	cnt := make([]int32, len(c.Gates))
	for _, g := range c.Gates {
		for _, f := range g.Fanin {
			cnt[f]++
		}
	}
	buf := make([]Line, 0, total(cnt))
	for l := range fo {
		n := cnt[l]
		fo[l] = buf[len(buf) : len(buf) : len(buf)+int(n)]
		buf = buf[:len(buf)+int(n)]
	}
	for i, g := range c.Gates {
		for _, f := range g.Fanin {
			fo[f] = append(fo[f], Line(i))
		}
	}
	c.fanout = fo
	return fo
}

func total(cnt []int32) int {
	t := 0
	for _, v := range cnt {
		t += int(v)
	}
	return t
}

// FanoutCount returns the number of gate pins reading line l.
func (c *Circuit) FanoutCount(l Line) int { return len(c.Fanout()[l]) }

// Topo returns a topological order of all lines (fanins before readers).
// The order is deterministic: among ready gates, lower indices first.
// Topo panics if the netlist contains any cycle; DFF gates do not break
// cycles here (package scan must be used first for sequential circuits
// with feedback). Boundary code that may face untrusted netlists should
// call TopoChecked (or Validate) first and surface the error instead.
func (c *Circuit) Topo() []Line {
	order, err := c.TopoChecked()
	if err != nil {
		panic("circuit: " + err.Error())
	}
	return order
}

// TopoChecked is Topo with an error return: on a cyclic netlist it reports
// a wrapped ErrCombinationalCycle instead of panicking. The successful
// result is cached exactly like Topo's.
func (c *Circuit) TopoChecked() ([]Line, error) {
	if c.topo != nil {
		return c.topo, nil
	}
	n := len(c.Gates)
	indeg := make([]int32, n)
	for i := range c.Gates {
		indeg[i] = int32(len(c.Gates[i].Fanin))
	}
	order := make([]Line, 0, n)
	ready := make([]Line, 0, n)
	for i := range c.Gates {
		if indeg[i] == 0 {
			ready = append(ready, Line(i))
		}
	}
	fo := c.Fanout()
	for len(ready) > 0 {
		// Pop the smallest index for determinism. ready is kept sorted by
		// construction: initial fill is ascending and we push in index order
		// per wave; a heap would be overkill for the circuit sizes used.
		l := ready[0]
		ready = ready[1:]
		order = append(order, l)
		for _, r := range fo[l] {
			indeg[r]--
			if indeg[r] == 0 {
				ready = insertSorted(ready, r)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCombinationalCycle
	}
	c.topo = order
	return order, nil
}

func insertSorted(s []Line, v Line) []Line {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// Levels returns the logic level of every line: PIs/consts at level 0, every
// other gate at 1 + max(level of fanins). The result is cached.
func (c *Circuit) Levels() []int32 {
	if c.level != nil {
		return c.level
	}
	lv := make([]int32, len(c.Gates))
	for _, l := range c.Topo() {
		m := int32(-1)
		for _, f := range c.Gates[l].Fanin {
			if lv[f] > m {
				m = lv[f]
			}
		}
		lv[l] = m + 1
	}
	c.level = lv
	return lv
}

// Depth returns the maximum logic level in the circuit.
func (c *Circuit) Depth() int32 {
	d := int32(0)
	for _, v := range c.Levels() {
		if v > d {
			d = v
		}
	}
	return d
}

// FanoutCone returns the set of lines reachable from l (inclusive),
// i.e. every line whose value can change when l changes, in topological
// order.
func (c *Circuit) FanoutCone(l Line) []Line {
	fo := c.Fanout()
	seen := make(map[Line]bool, 64)
	seen[l] = true
	stack := []Line{l}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range fo[x] {
			if !seen[r] {
				seen[r] = true
				stack = append(stack, r)
			}
		}
	}
	cone := make([]Line, 0, len(seen))
	for _, t := range c.Topo() {
		if seen[t] {
			cone = append(cone, t)
		}
	}
	return cone
}

// FaninCone returns the transitive fanin of l (inclusive) in topological
// order.
func (c *Circuit) FaninCone(l Line) []Line {
	seen := make(map[Line]bool, 64)
	seen[l] = true
	stack := []Line{l}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.Gates[x].Fanin {
			if !seen[f] {
				seen[f] = true
				stack = append(stack, f)
			}
		}
	}
	cone := make([]Line, 0, len(seen))
	for _, t := range c.Topo() {
		if seen[t] {
			cone = append(cone, t)
		}
	}
	return cone
}

// ConeOutputs returns the primary outputs reachable from l.
func (c *Circuit) ConeOutputs(l Line) []Line {
	inCone := make(map[Line]bool)
	for _, x := range c.FanoutCone(l) {
		inCone[x] = true
	}
	var pos []Line
	for _, po := range c.POs {
		if inCone[po] {
			pos = append(pos, po)
		}
	}
	return pos
}

// LineCount returns the ISCAS-style line count used in the paper's tables:
// one line per gate output (stem) plus one line per fanout branch whenever a
// stem feeds more than one gate pin.
func (c *Circuit) LineCount() int {
	fo := c.Fanout()
	n := 0
	for l := range c.Gates {
		n++ // stem
		if len(fo[l]) > 1 {
			n += len(fo[l]) // branches
		}
	}
	return n
}

// Validate checks structural well-formedness: fanin arities legal for the
// gate type, fanin references in range and acyclic, POs in range, PIs are
// exactly the Input gates. Failures wrap ErrInvalidNetlist (or
// ErrCombinationalCycle for loops) for errors.Is classification.
func (c *Circuit) Validate() error {
	piSet := make(map[Line]bool, len(c.PIs))
	for _, p := range c.PIs {
		piSet[p] = true
	}
	for i, g := range c.Gates {
		if !g.Type.Valid() {
			return fmt.Errorf("circuit: gate %d has invalid type %d: %w", i, g.Type, ErrInvalidNetlist)
		}
		if min := g.Type.MinFanin(); len(g.Fanin) < min {
			return fmt.Errorf("circuit: gate %d (%s) has %d fanins, need at least %d: %w", i, g.Type, len(g.Fanin), min, ErrInvalidNetlist)
		}
		if max := g.Type.MaxFanin(); max >= 0 && len(g.Fanin) > max {
			return fmt.Errorf("circuit: gate %d (%s) has %d fanins, allows at most %d: %w", i, g.Type, len(g.Fanin), max, ErrInvalidNetlist)
		}
		if (g.Type == Input) != piSet[Line(i)] {
			return fmt.Errorf("circuit: gate %d PI membership inconsistent: %w", i, ErrInvalidNetlist)
		}
		for p, f := range g.Fanin {
			if f < 0 || int(f) >= len(c.Gates) {
				return fmt.Errorf("circuit: gate %d pin %d references out-of-range line %d: %w", i, p, f, ErrInvalidNetlist)
			}
		}
	}
	for _, po := range c.POs {
		if po < 0 || int(po) >= len(c.Gates) {
			return fmt.Errorf("circuit: PO references out-of-range line %d: %w", po, ErrInvalidNetlist)
		}
	}
	// Cycles are illegal unless broken by a DFF: sequential circuits with
	// state feedback are valid netlists (package scan gives them
	// combinational meaning), purely combinational loops are not.
	if c.hasCombinationalCycle() {
		return fmt.Errorf("circuit: %w", ErrCombinationalCycle)
	}
	return nil
}

// hasCombinationalCycle runs Kahn's algorithm on the circuit with DFF fanin
// edges removed; any unprocessed gate indicates a cycle not broken by state.
func (c *Circuit) hasCombinationalCycle() bool {
	n := len(c.Gates)
	indeg := make([]int32, n)
	for i := range c.Gates {
		if c.Gates[i].Type == DFF {
			continue
		}
		indeg[i] = int32(len(c.Gates[i].Fanin))
	}
	queue := make([]Line, 0, n)
	for i := range c.Gates {
		if indeg[i] == 0 {
			queue = append(queue, Line(i))
		}
	}
	done := 0
	for len(queue) > 0 {
		l := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, r := range c.Fanout()[l] {
			if c.Gates[r].Type == DFF {
				continue
			}
			indeg[r]--
			if indeg[r] == 0 {
				queue = append(queue, r)
			}
		}
	}
	return done != n
}

// Stats summarises a circuit for reporting.
type Stats struct {
	Gates  int // all gates including PI pseudo-gates
	PIs    int
	POs    int
	Lines  int // ISCAS-style stems + branches
	Levels int32
	DFFs   int
}

// Stats computes summary statistics.
func (c *Circuit) Stats() Stats {
	s := Stats{
		Gates: len(c.Gates),
		PIs:   len(c.PIs),
		POs:   len(c.POs),
		Lines: c.LineCount(),
	}
	s.Levels = c.Depth()
	for _, g := range c.Gates {
		if g.Type == DFF {
			s.DFFs++
		}
	}
	return s
}

// IsSequential reports whether the circuit contains any DFF.
func (c *Circuit) IsSequential() bool {
	for _, g := range c.Gates {
		if g.Type == DFF {
			return true
		}
	}
	return false
}
