package errmodel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dedc/internal/circuit"
	"dedc/internal/gen"
	"dedc/internal/sim"
)

// small builds AND(a,b) OR c with a couple of levels.
func small() (*circuit.Circuit, circuit.Line, circuit.Line) {
	c := circuit.New(8)
	a := c.AddPI("a")
	b := c.AddPI("b")
	d := c.AddPI("d")
	g1 := c.AddNamedGate("g1", circuit.And, a, b)
	g2 := c.AddNamedGate("g2", circuit.Or, g1, d)
	c.MarkPO(g2)
	return c, g1, g2
}

func TestApplyGateReplace(t *testing.T) {
	c, g1, _ := small()
	m := Mod{Kind: GateReplace, Line: g1, NewType: circuit.Or}
	if err := m.Apply(c); err != nil {
		t.Fatal(err)
	}
	if c.Type(g1) != circuit.Or {
		t.Fatal("gate type not replaced")
	}
}

func TestApplyToggleOutInv(t *testing.T) {
	c, g1, _ := small()
	if err := (Mod{Kind: ToggleOutInv, Line: g1}).Apply(c); err != nil {
		t.Fatal(err)
	}
	if c.Type(g1) != circuit.Nand {
		t.Fatalf("AND toggled to %s, want NAND", c.Type(g1))
	}
	if err := (Mod{Kind: ToggleOutInv, Line: g1}).Apply(c); err != nil {
		t.Fatal(err)
	}
	if c.Type(g1) != circuit.And {
		t.Fatal("double toggle did not restore AND")
	}
}

func TestApplyToggleInInvInsertsNot(t *testing.T) {
	c, g1, _ := small()
	before := c.NumLines()
	if err := (Mod{Kind: ToggleInInv, Line: g1, Pin: 0}).Apply(c); err != nil {
		t.Fatal(err)
	}
	if c.NumLines() != before+1 {
		t.Fatal("no inverter gate added")
	}
	inv := c.Fanin(g1)[0]
	if c.Type(inv) != circuit.Not {
		t.Fatal("pin not fed through a NOT")
	}
}

func TestApplyAddRemoveWire(t *testing.T) {
	c, g1, _ := small()
	d := c.PIs[2]
	if err := (Mod{Kind: AddWire, Line: g1, Src: d}).Apply(c); err != nil {
		t.Fatal(err)
	}
	if len(c.Fanin(g1)) != 3 {
		t.Fatal("wire not added")
	}
	if err := (Mod{Kind: RemoveWire, Line: g1, Pin: 2}).Apply(c); err != nil {
		t.Fatal(err)
	}
	if len(c.Fanin(g1)) != 2 {
		t.Fatal("wire not removed")
	}
}

func TestRemoveWireArityConversion(t *testing.T) {
	c, g1, _ := small()
	if err := (Mod{Kind: RemoveWire, Line: g1, Pin: 1}).Apply(c); err != nil {
		t.Fatal(err)
	}
	if c.Type(g1) != circuit.Buf || len(c.Fanin(g1)) != 1 {
		t.Fatalf("2-input AND minus a wire should become BUF, got %s/%d", c.Type(g1), len(c.Fanin(g1)))
	}
	// NAND converts to NOT.
	c2 := circuit.New(4)
	a := c2.AddPI("a")
	b := c2.AddPI("b")
	g := c2.AddGate(circuit.Nand, a, b)
	c2.MarkPO(g)
	if err := (Mod{Kind: RemoveWire, Line: g, Pin: 0}).Apply(c2); err != nil {
		t.Fatal(err)
	}
	if c2.Type(g) != circuit.Not {
		t.Fatalf("2-input NAND minus a wire should become NOT, got %s", c2.Type(g))
	}
	if err := c2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyReplaceWire(t *testing.T) {
	c, g1, _ := small()
	d := c.PIs[2]
	if err := (Mod{Kind: ReplaceWire, Line: g1, Pin: 1, Src: d}).Apply(c); err != nil {
		t.Fatal(err)
	}
	if c.Fanin(g1)[1] != d {
		t.Fatal("wire not replaced")
	}
}

func TestCheckRejections(t *testing.T) {
	c, g1, g2 := small()
	cases := []struct {
		name string
		m    Mod
	}{
		{"PI target", Mod{Kind: ToggleOutInv, Line: c.PIs[0]}},
		{"out of range line", Mod{Kind: ToggleOutInv, Line: 99}},
		{"pin out of range", Mod{Kind: ToggleInInv, Line: g1, Pin: 5}},
		{"no-op replace", Mod{Kind: GateReplace, Line: g1, NewType: circuit.And}},
		{"replace to input", Mod{Kind: GateReplace, Line: g1, NewType: circuit.Input}},
		{"self loop", Mod{Kind: AddWire, Line: g1, Src: g1}},
		{"cycle", Mod{Kind: AddWire, Line: g1, Src: g2}},
		{"wire no-op", Mod{Kind: ReplaceWire, Line: g1, Pin: 0, Src: c.PIs[0]}},
		{"src out of range", Mod{Kind: AddWire, Line: g1, Src: 99}},
	}
	for _, tc := range cases {
		if err := tc.m.Check(c); err == nil {
			t.Errorf("%s: Check accepted %v", tc.name, tc.m)
		}
	}
}

func TestRemoveOnlyInputRejected(t *testing.T) {
	c := circuit.New(3)
	a := c.AddPI("a")
	g := c.AddGate(circuit.Not, a)
	c.MarkPO(g)
	if err := (Mod{Kind: RemoveWire, Line: g, Pin: 0}).Check(c); err == nil {
		t.Fatal("removing the only input accepted")
	}
}

// TestTrialMatchesApply is the central consistency property: the mod's
// NewValues row forced by Engine.Trial must predict exactly the values a
// full simulation of the applied mod produces.
func TestTrialMatchesApply(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := gen.Random(gen.RandomOptions{PIs: 6, Gates: 50, Seed: seed})
		n := 192
		pats := sim.RandomPatterns(len(c.PIs), n, rng.Int63())
		e := sim.NewEngine(c, pats, n)
		row := make([]uint64, e.W)
		dist := DefaultDistribution()
		for tries := 0; tries < 30; tries++ {
			m, ok := randomMod(c, rng, dist)
			if !ok {
				continue
			}
			e.C = c // ensure engine sees the unmodified circuit
			m.NewValues(e, row)
			changed := e.Trial(m.Line, row)
			applied := c.Clone()
			if err := m.Apply(applied); err != nil {
				return false
			}
			ref := sim.Simulate(applied, pats, n)
			// Every original line's trial value must match the reference;
			// note ToggleInInv adds a gate in the applied copy, which has no
			// counterpart in the trial and is skipped.
			for l := 0; l < c.NumLines(); l++ {
				if !sim.EqualRows(e.TrialVal(circuit.Line(l)), ref[l], n) {
					return false
				}
			}
			// Changed lines must be exactly those whose values differ.
			changedSet := map[circuit.Line]bool{}
			for _, l := range changed {
				changedSet[l] = true
			}
			base := sim.Simulate(c, pats, n)
			for l := 0; l < c.NumLines(); l++ {
				differs := !sim.EqualRows(base[l], ref[l], n)
				if differs != changedSet[circuit.Line(l)] {
					return false
				}
			}
			return true
		}
		return true // no applicable mod found; vacuously fine
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerateAllCandidatesLegal(t *testing.T) {
	c := gen.Alu(4)
	srcs := []circuit.Line{c.PIs[0], c.PIs[1], 20, 30}
	for l := circuit.Line(0); int(l) < c.NumLines(); l += 7 {
		for _, m := range Enumerate(c, l, srcs) {
			if err := m.Check(c); err != nil {
				t.Fatalf("Enumerate produced illegal mod %v: %v", m, err)
			}
			if m.Line != l {
				t.Fatalf("mod %v targets wrong line", m)
			}
		}
	}
}

func TestEnumerateNoDuplicates(t *testing.T) {
	c, g1, _ := small()
	srcs := []circuit.Line{c.PIs[2]}
	seen := map[Mod]bool{}
	for _, m := range Enumerate(c, g1, srcs) {
		if seen[m] {
			t.Fatalf("duplicate candidate %v", m)
		}
		seen[m] = true
	}
}

func TestEnumerateSkipsPIsAndCycles(t *testing.T) {
	c, g1, g2 := small()
	if mods := Enumerate(c, c.PIs[0], nil); mods != nil {
		t.Fatal("PI produced correction candidates")
	}
	for _, m := range Enumerate(c, g1, []circuit.Line{g2}) {
		if m.Src == g2 {
			t.Fatalf("cycle-creating source offered: %v", m)
		}
	}
}

func TestEnumerateExcludesInvertedDuplicate(t *testing.T) {
	c, g1, _ := small() // g1 is AND
	for _, m := range Enumerate(c, g1, nil) {
		if m.Kind == GateReplace && m.NewType == circuit.Nand {
			t.Fatal("GateReplace to NAND duplicates ToggleOutInv on an AND")
		}
	}
}

func TestInjectObservableErrors(t *testing.T) {
	c := gen.Alu(4)
	for k := 1; k <= 4; k++ {
		bad, mods, err := Inject(c, k, InjectOptions{Seed: int64(k) * 31})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(mods) != k {
			t.Fatalf("k=%d: %d mods", k, len(mods))
		}
		if sim.Equivalent(c, bad, sim.RandomPatterns(len(c.PIs), 512, 99), 512) {
			t.Fatalf("k=%d: corrupted circuit equivalent to original", k)
		}
		if err := bad.Validate(); err != nil {
			t.Fatalf("k=%d: invalid corrupted circuit: %v", k, err)
		}
	}
}

func TestInjectDeterministic(t *testing.T) {
	c := gen.Alu(4)
	b1, m1, err1 := Inject(c, 3, InjectOptions{Seed: 5})
	b2, m2, err2 := Inject(c, 3, InjectOptions{Seed: 5})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(m1) != len(m2) {
		t.Fatal("mod counts differ")
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("mod %d differs: %v vs %v", i, m1[i], m2[i])
		}
	}
	if !circuit.StructuralEqual(b1, b2) {
		t.Fatal("corrupted circuits differ")
	}
}

func TestInjectLeavesOriginalIntact(t *testing.T) {
	c := gen.Alu(4)
	orig := c.Clone()
	if _, _, err := Inject(c, 2, InjectOptions{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if !circuit.StructuralEqual(c, orig) {
		t.Fatal("Inject mutated its input")
	}
}

func TestDistributionSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := DefaultDistribution()
	counts := map[Kind]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[d.sample(rng)]++
	}
	total := 0
	for _, w := range d {
		total += w
	}
	for k, w := range d {
		want := float64(w) / float64(total)
		got := float64(counts[k]) / n
		if got < want*0.8 || got > want*1.2 {
			t.Errorf("kind %s: frequency %.3f, want ≈%.3f", k, got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if GateReplace.String() != "gate-replace" || ReplaceWire.String() != "wrong-wire" {
		t.Fatal("kind names wrong")
	}
}

func TestModString(t *testing.T) {
	m := Mod{Kind: ReplaceWire, Line: 4, Pin: 1, Src: 2}
	if m.String() == "" {
		t.Fatal("empty string rendering")
	}
}
