package errmodel

import (
	"strings"
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/gen"
	"dedc/internal/sim"
)

func TestNewValuesMatchesTrialTarget(t *testing.T) {
	// For every mod kind, NewValues (local, no propagation) must equal the
	// target-line value a full simulation of the applied mod computes.
	c := gen.Alu(4)
	n := 192
	pi := sim.RandomPatterns(len(c.PIs), n, 3)
	e := sim.NewEngine(c, pi, n)
	mods := []Mod{
		{Kind: GateReplace, Line: 60, NewType: pickReplace(c, 60)},
		{Kind: ToggleOutInv, Line: 60},
		{Kind: ToggleInInv, Line: 60, Pin: 0},
		{Kind: ReplaceWire, Line: 60, Pin: 0, Src: c.PIs[0]},
	}
	// Add AddWire / RemoveWire where legal.
	if len(c.Fanin(60)) >= 2 {
		mods = append(mods, Mod{Kind: RemoveWire, Line: 60, Pin: 1})
	}
	dst := make([]uint64, e.W)
	for _, m := range mods {
		if err := m.Check(c); err != nil {
			continue
		}
		m.NewValues(e, dst)
		applied := c.Clone()
		if err := m.Apply(applied); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if want := sim.Simulate(applied, pi, n)[m.Line]; !sim.EqualRows(dst, want, n) {
			t.Fatalf("%v: NewValues disagrees with the applied mod", m)
		}
	}
}

func pickReplace(c *circuit.Circuit, l circuit.Line) circuit.GateType {
	cur := c.Type(l)
	inv, _ := cur.InversionOf()
	for _, t := range []circuit.GateType{circuit.And, circuit.Or, circuit.Nand, circuit.Nor} {
		if t != cur && t != inv {
			return t
		}
	}
	return circuit.And
}

func TestAddWireTypedNewValues(t *testing.T) {
	// AddWire onto a BUF with a restored type evaluates with that type.
	c := circuit.New(6)
	a := c.AddPI("a")
	b := c.AddPI("b")
	g := c.AddGate(circuit.Buf, a)
	c.MarkPO(g)
	pi, n, _ := sim.ExhaustivePatterns(2)
	e := sim.NewEngine(c, pi, n)
	m := Mod{Kind: AddWire, Line: g, Src: b, NewType: circuit.And}
	if err := m.Check(c); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, e.W)
	m.NewValues(e, dst)
	if dst[0]&0xf != 0b1000 { // AND(a,b)
		t.Fatalf("typed AddWire NewValues = %04b, want 1000", dst[0]&0xf)
	}
	// Apply agrees.
	cc := c.Clone()
	if err := m.Apply(cc); err != nil {
		t.Fatal(err)
	}
	if cc.Type(g) != circuit.And || len(cc.Fanin(g)) != 2 {
		t.Fatal("typed AddWire Apply wrong")
	}
	if !sim.EquivalentExhaustive(cc, mustAnd(t)) {
		t.Fatal("restored gate not AND(a,b)")
	}
}

func mustAnd(t *testing.T) *circuit.Circuit {
	t.Helper()
	c := circuit.New(4)
	a := c.AddPI("a")
	b := c.AddPI("b")
	c.MarkPO(c.AddGate(circuit.And, a, b))
	return c
}

func TestAddWireTypedCheckRejectsInversionMismatch(t *testing.T) {
	c := circuit.New(6)
	a := c.AddPI("a")
	b := c.AddPI("b")
	g := c.AddGate(circuit.Not, a)
	c.MarkPO(g)
	_ = b
	// NOT target requires an inverting restored type.
	if err := (Mod{Kind: AddWire, Line: g, Src: b, NewType: circuit.And}).Check(c); err == nil {
		t.Fatal("non-inverting restore on NOT accepted")
	}
	if err := (Mod{Kind: AddWire, Line: g, Src: b, NewType: circuit.Nor}).Check(c); err != nil {
		t.Fatalf("inverting restore rejected: %v", err)
	}
	// Typed AddWire on a multi-input gate is rejected.
	c2 := circuit.New(6)
	a2 := c2.AddPI("a")
	b2 := c2.AddPI("b")
	d2 := c2.AddPI("d")
	g2 := c2.AddGate(circuit.And, a2, b2)
	c2.MarkPO(g2)
	if err := (Mod{Kind: AddWire, Line: g2, Src: d2, NewType: circuit.Or}).Check(c2); err == nil {
		t.Fatal("typed AddWire on multi-input gate accepted")
	}
}

func TestModStringsAllKinds(t *testing.T) {
	mods := []Mod{
		{Kind: GateReplace, Line: 1, NewType: circuit.Or},
		{Kind: ToggleOutInv, Line: 2},
		{Kind: ToggleInInv, Line: 3, Pin: 1},
		{Kind: AddWire, Line: 4, Src: 2},
		{Kind: AddWire, Line: 4, Src: 2, NewType: circuit.And},
		{Kind: RemoveWire, Line: 5, Pin: 0},
		{Kind: ReplaceWire, Line: 6, Pin: 1, Src: 3},
	}
	seen := map[string]bool{}
	for _, m := range mods {
		s := m.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate rendering %q", s)
		}
		seen[s] = true
		if m.Target() != m.Line {
			t.Fatal("Target != Line")
		}
	}
	if !strings.Contains((Mod{Kind: AddWire, Line: 4, Src: 2, NewType: circuit.And}).String(), "as AND") {
		t.Fatal("typed AddWire rendering missing type")
	}
}

func TestKindStringOutOfRange(t *testing.T) {
	if Kind(99).String() == "" {
		t.Fatal("out-of-range kind renders empty")
	}
}

// TestNewValuesTrialAllocFree guards the correction screen's inner loop:
// NewValues builds the modified gate in stack buffers and Engine.Trial
// propagates its row in engine-owned storage, so neither allocates for any
// Kind.
func TestNewValuesTrialAllocFree(t *testing.T) {
	c := gen.Alu(4)
	n := 192
	e := sim.NewEngine(c, sim.RandomPatterns(len(c.PIs), n, 5), n)
	srcs := make([]circuit.Line, c.NumLines())
	for i := range srcs {
		srcs[i] = circuit.Line(i)
	}
	byKind := map[Kind]Mod{}
	for l := 0; l < c.NumLines() && len(byKind) < int(numKinds); l++ {
		for _, m := range Enumerate(c, circuit.Line(l), srcs) {
			if _, ok := byKind[m.Kind]; !ok && len(c.Fanin(m.Line)) >= 2 {
				byKind[m.Kind] = m
			}
		}
	}
	dst := make([]uint64, e.W)
	for k := Kind(0); k < numKinds; k++ {
		m, ok := byKind[k]
		if !ok {
			t.Fatalf("no %v candidate enumerated", k)
		}
		if a := testing.AllocsPerRun(50, func() { m.NewValues(e, dst) }); a != 0 {
			t.Errorf("%v NewValues: %.1f allocs, want 0", m, a)
		}
		if a := testing.AllocsPerRun(50, func() { e.Trial(m.Line, dst) }); a != 0 {
			t.Errorf("%v Trial: %.1f allocs, want 0", m, a)
		}
	}
}
