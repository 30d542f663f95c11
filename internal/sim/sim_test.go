package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dedc/internal/circuit"
)

// naiveEval evaluates one gate on scalar booleans, as an independent
// reference for the word-parallel kernels.
func naiveEval(t circuit.GateType, in []bool) bool {
	switch t {
	case circuit.Const0:
		return false
	case circuit.Const1:
		return true
	case circuit.Buf, circuit.DFF:
		return in[0]
	case circuit.Not:
		return !in[0]
	case circuit.And, circuit.Nand:
		acc := true
		for _, v := range in {
			acc = acc && v
		}
		if t == circuit.Nand {
			return !acc
		}
		return acc
	case circuit.Or, circuit.Nor:
		acc := false
		for _, v := range in {
			acc = acc || v
		}
		if t == circuit.Nor {
			return !acc
		}
		return acc
	case circuit.Xor, circuit.Xnor:
		acc := false
		for _, v := range in {
			acc = acc != v
		}
		if t == circuit.Xnor {
			return !acc
		}
		return acc
	}
	panic("unreachable")
}

// naiveSimulate simulates pattern p bit-by-bit.
func naiveSimulate(c *circuit.Circuit, pi [][]uint64, p int) []bool {
	v := make([]bool, c.NumLines())
	for i, l := range c.PIs {
		v[l] = pi[i][p/64]>>(p%64)&1 == 1
	}
	for _, l := range c.Topo() {
		g := &c.Gates[l]
		if g.Type == circuit.Input {
			continue
		}
		in := make([]bool, len(g.Fanin))
		for j, f := range g.Fanin {
			in[j] = v[f]
		}
		v[l] = naiveEval(g.Type, in)
	}
	return v
}

func randomCircuit(rng *rand.Rand, nPI, nGate int) *circuit.Circuit {
	c := circuit.New(nPI + nGate)
	for i := 0; i < nPI; i++ {
		c.AddPI("")
	}
	types := []circuit.GateType{circuit.Buf, circuit.Not, circuit.And, circuit.Nand,
		circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor}
	for i := 0; i < nGate; i++ {
		tt := types[rng.Intn(len(types))]
		n := tt.MinFanin()
		if tt.MaxFanin() < 0 {
			n += rng.Intn(3)
		}
		fanin := make([]circuit.Line, n)
		for j := range fanin {
			fanin[j] = circuit.Line(rng.Intn(c.NumLines()))
		}
		c.AddGate(tt, fanin...)
	}
	fo := c.Fanout()
	for l := 0; l < c.NumLines(); l++ {
		if len(fo[l]) == 0 {
			c.MarkPO(circuit.Line(l))
		}
	}
	return c
}

func TestWords(t *testing.T) {
	cases := map[int]int{1: 1, 63: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for n, want := range cases {
		if got := Words(n); got != want {
			t.Errorf("Words(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestTailMask(t *testing.T) {
	if TailMask(64) != ^uint64(0) {
		t.Error("TailMask(64) should be all ones")
	}
	if TailMask(1) != 1 {
		t.Errorf("TailMask(1) = %x, want 1", TailMask(1))
	}
	if TailMask(65) != 1 {
		t.Errorf("TailMask(65) = %x, want 1", TailMask(65))
	}
}

func TestEvalGateTruthTables(t *testing.T) {
	// Two fanin rows covering all four input combinations in the low bits.
	a := []uint64{0b0101}
	b := []uint64{0b0011}
	out := make([]uint64, 1)
	cases := map[circuit.GateType]uint64{
		circuit.And:  0b0001,
		circuit.Nand: 0b1110,
		circuit.Or:   0b0111,
		circuit.Nor:  0b1000,
		circuit.Xor:  0b0110,
		circuit.Xnor: 0b1001,
	}
	for tt, want := range cases {
		EvalGateInto(tt, out, 1, a, b)
		if out[0]&0b1111 != want {
			t.Errorf("%s: got %04b, want %04b", tt, out[0]&0b1111, want)
		}
	}
	EvalGateInto(circuit.Not, out, 1, a)
	if out[0]&0b1111 != 0b1010 {
		t.Errorf("NOT: got %04b, want 1010", out[0]&0b1111)
	}
	EvalGateInto(circuit.Buf, out, 1, a)
	if out[0]&0b1111 != 0b0101 {
		t.Errorf("BUF: got %04b, want 0101", out[0]&0b1111)
	}
	EvalGateInto(circuit.Const0, out, 1)
	if out[0] != 0 {
		t.Error("CONST0 not zero")
	}
	EvalGateInto(circuit.Const1, out, 1)
	if out[0] != ^uint64(0) {
		t.Error("CONST1 not ones")
	}
}

func TestEvalGateThreeInput(t *testing.T) {
	a := []uint64{0b01010101}
	b := []uint64{0b00110011}
	c := []uint64{0b00001111}
	out := make([]uint64, 1)
	EvalGateInto(circuit.And, out, 1, a, b, c)
	if out[0]&0xff != 0b00000001 {
		t.Errorf("AND3 = %08b", out[0]&0xff)
	}
	EvalGateInto(circuit.Or, out, 1, a, b, c)
	if out[0]&0xff != 0b01111111 {
		t.Errorf("OR3 = %08b", out[0]&0xff)
	}
	EvalGateInto(circuit.Xor, out, 1, a, b, c)
	if out[0]&0xff != 0b01101001 {
		t.Errorf("XOR3 = %08b", out[0]&0xff)
	}
}

// TestEvalGateIntoMatchesReference checks the word-parallel kernel against
// the per-bit reference naiveEval for every gate type at arities 1–5, over
// pattern counts that fill whole words and that end in a partial tail word.
// Words past w must stay untouched.
func TestEvalGateIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bit := func(row []uint64, p int) bool { return row[p/64]>>(uint(p)%64)&1 == 1 }
	for _, n := range []int{1, 37, 64, 100, 128, 191, 320} {
		w := Words(n)
		for gt := circuit.Const0; gt <= circuit.DFF; gt++ {
			arities := []int{1, 2, 3, 4, 5}
			switch gt {
			case circuit.Const0, circuit.Const1:
				arities = []int{0}
			case circuit.Buf, circuit.Not, circuit.DFF:
				arities = []int{1}
			}
			for _, k := range arities {
				fanin := make([][]uint64, k)
				for i := range fanin {
					fanin[i] = make([]uint64, w)
					for j := range fanin[i] {
						fanin[i][j] = rng.Uint64()
					}
				}
				const sentinel = 0xdeadbeef
				out := make([]uint64, w+1)
				out[w] = sentinel
				EvalGateInto(gt, out, w, fanin...)
				if out[w] != sentinel {
					t.Fatalf("%s/%d n=%d: wrote past w words", gt, k, n)
				}
				in := make([]bool, k)
				for p := 0; p < n; p++ {
					for i := range in {
						in[i] = bit(fanin[i], p)
					}
					if got, want := bit(out, p), naiveEval(gt, in); got != want {
						t.Fatalf("%s/%d n=%d pattern %d: got %v, want %v", gt, k, n, p, got, want)
					}
				}
			}
		}
	}
}

func TestSimulateMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		c := randomCircuit(rng, 4, 30)
		n := 100
		pi := RandomPatterns(len(c.PIs), n, rng.Int63())
		val := Simulate(c, pi, n)
		for _, p := range []int{0, 1, 50, 63, 64, 99} {
			ref := naiveSimulate(c, pi, p)
			for l := 0; l < c.NumLines(); l++ {
				got := val[l][p/64]>>(p%64)&1 == 1
				if got != ref[l] {
					t.Fatalf("trial %d pattern %d line %d: parallel=%v naive=%v", trial, p, l, got, ref[l])
				}
			}
		}
	}
}

func TestExhaustivePatterns(t *testing.T) {
	pi, n, _ := ExhaustivePatterns(3)
	if n != 8 {
		t.Fatalf("n = %d, want 8", n)
	}
	// Pattern 5 = 0b101 assigns PI0=1, PI1=0, PI2=1.
	if pi[0][0]>>5&1 != 1 || pi[1][0]>>5&1 != 0 || pi[2][0]>>5&1 != 1 {
		t.Fatal("pattern 5 bits wrong")
	}
	// All patterns distinct: the rows, read column-wise, enumerate 0..7.
	seen := map[int]bool{}
	for p := 0; p < n; p++ {
		v := 0
		for i := 0; i < 3; i++ {
			if pi[i][0]>>(p%64)&1 == 1 {
				v |= 1 << i
			}
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("patterns enumerate %d distinct assignments, want 8", len(seen))
	}
}

// exhaustivePatternsSerial is the per-bit reference for ExhaustivePatterns:
// one bit set per (pattern, PI).
func exhaustivePatternsSerial(nPI int) ([][]uint64, int) {
	n := 1 << nPI
	w := Words(n)
	rows := make([][]uint64, nPI)
	for i := range rows {
		rows[i] = make([]uint64, w)
	}
	for p := 0; p < n; p++ {
		for i := 0; i < nPI; i++ {
			if (p>>i)&1 == 1 {
				rows[i][p/64] |= 1 << (p % 64)
			}
		}
	}
	return rows, n
}

// TestExhaustivePatternsMatchesSerial: the word-level rows equal the per-bit
// reference bit for bit, tail bits included, for fewer than 64 patterns,
// exactly 64 and many words.
func TestExhaustivePatternsMatchesSerial(t *testing.T) {
	for nPI := 0; nPI <= 16; nPI++ {
		got, n, err := ExhaustivePatterns(nPI)
		if err != nil {
			t.Fatalf("nPI %d: %v", nPI, err)
		}
		want, wantN := exhaustivePatternsSerial(nPI)
		if n != wantN || len(got) != len(want) {
			t.Fatalf("nPI %d: n=%d rows=%d, want n=%d rows=%d", nPI, n, len(got), wantN, len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("nPI %d PI %d: %d words, want %d", nPI, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("nPI %d PI %d word %d: %#x, want %#x", nPI, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	for _, bad := range []int{-1, 21} {
		if _, _, err := ExhaustivePatterns(bad); err != ErrTooManyInputs {
			t.Errorf("nPI %d: err = %v, want ErrTooManyInputs", bad, err)
		}
	}
}

func TestPopcountAndEqualRows(t *testing.T) {
	row := []uint64{^uint64(0), ^uint64(0)}
	if got := Popcount(row, 70); got != 70 {
		t.Fatalf("Popcount = %d, want 70 (tail masked)", got)
	}
	a := []uint64{0xff, 0xf0f0}
	b := []uint64{0xff, 0x0f0f}
	if !EqualRows(a, b, 64) {
		t.Fatal("rows equal on first word but reported unequal")
	}
	if EqualRows(a, b, 70) {
		t.Fatal("rows differ in word 2 but reported equal")
	}
}

func TestDiffMask(t *testing.T) {
	a := [][]uint64{{0b0011}, {0b0101}}
	b := [][]uint64{{0b0001}, {0b0101}}
	m := DiffMask(a, b, 4)
	if m[0] != 0b0010 {
		t.Fatalf("DiffMask = %04b, want 0010", m[0])
	}
}

func TestEquivalentDetectsDifference(t *testing.T) {
	c1 := circuit.New(4)
	x := c1.AddPI("x")
	y := c1.AddPI("y")
	g := c1.AddGate(circuit.And, x, y)
	c1.MarkPO(g)
	c2 := c1.Clone()
	if !EquivalentExhaustive(c1, c2) {
		t.Fatal("identical circuits not equivalent")
	}
	c2.SetType(g, circuit.Or)
	if EquivalentExhaustive(c1, c2) {
		t.Fatal("AND vs OR reported equivalent")
	}
}

// De Morgan: NAND(a,b) == OR(NOT a, NOT b) — built structurally.
func TestEquivalentDeMorgan(t *testing.T) {
	c1 := circuit.New(4)
	a := c1.AddPI("a")
	b := c1.AddPI("b")
	c1.MarkPO(c1.AddGate(circuit.Nand, a, b))

	c2 := circuit.New(6)
	a2 := c2.AddPI("a")
	b2 := c2.AddPI("b")
	na := c2.AddGate(circuit.Not, a2)
	nb := c2.AddGate(circuit.Not, b2)
	c2.MarkPO(c2.AddGate(circuit.Or, na, nb))

	if !EquivalentExhaustive(c1, c2) {
		t.Fatal("De Morgan equivalence not detected")
	}
}

func TestEngineTrialMatchesFullResim(t *testing.T) {
	// Property: forcing new values onto a line and trial-propagating must
	// agree with a from-scratch simulation of a circuit whose line is
	// replaced by fresh PIs carrying those values.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 4, 25)
		n := 130
		pi := RandomPatterns(len(c.PIs), n, rng.Int63())
		e := NewEngine(c, pi, n)
		l := circuit.Line(rng.Intn(c.NumLines()))
		forced := make([]uint64, e.W)
		for i := range forced {
			forced[i] = rng.Uint64()
		}
		e.Trial(l, forced)

		// Reference: simulate a copy where l is replaced by a const-driven
		// line carrying forced. Easiest faithful construction: override the
		// base value and re-run topological evaluation skipping l.
		ref := Simulate(c, pi, n)
		copy(ref[l], forced)
		scratch := make([][]uint64, 0, 8)
		for _, x := range c.Topo() {
			g := &c.Gates[x]
			if x == l || g.Type == circuit.Input {
				continue
			}
			scratch = scratch[:0]
			for _, fin := range g.Fanin {
				scratch = append(scratch, ref[fin])
			}
			EvalGateInto(g.Type, ref[x], e.W, scratch...)
		}
		for x := 0; x < c.NumLines(); x++ {
			if !EqualRows(e.TrialVal(circuit.Line(x)), ref[x], n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineTrialLeavesBaseIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomCircuit(rng, 4, 25)
	n := 100
	pi := RandomPatterns(len(c.PIs), n, 11)
	e := NewEngine(c, pi, n)
	base := make([][]uint64, c.NumLines())
	for l := range base {
		base[l] = append([]uint64(nil), e.BaseVal(circuit.Line(l))...)
	}
	forced := make([]uint64, e.W)
	for i := range forced {
		forced[i] = ^uint64(0)
	}
	for trial := 0; trial < 10; trial++ {
		e.Trial(circuit.Line(rng.Intn(c.NumLines())), forced)
	}
	for l := range base {
		if !EqualRows(base[l], e.BaseVal(circuit.Line(l)), n) {
			t.Fatalf("base values of line %d corrupted by trials", l)
		}
	}
}

func TestEngineTrialNoChangeWhenForcedEqualsBase(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomCircuit(rng, 3, 15)
	n := 64
	pi := RandomPatterns(len(c.PIs), n, 13)
	e := NewEngine(c, pi, n)
	l := circuit.Line(c.NumLines() - 1)
	changed := e.Trial(l, e.BaseVal(l))
	if len(changed) != 0 {
		t.Fatalf("forcing base value changed %d lines", len(changed))
	}
}

// trialGate tries a structural correction of line l the way the diagnosis
// screen does: EvalCandidate computes the row the hypothetical gate would
// produce, and Trial forces it and propagates.
func trialGate(e *Engine, l circuit.Line, t circuit.GateType, fin []circuit.Line, finComp []bool, outComp bool) []circuit.Line {
	row := make([]uint64, e.W)
	e.EvalCandidate(row, t, fin, finComp, outComp)
	return e.Trial(l, row)
}

func TestEngineTrialEvalGateReplacement(t *testing.T) {
	c := circuit.New(4)
	a := c.AddPI("a")
	b := c.AddPI("b")
	g := c.AddGate(circuit.And, a, b)
	c.MarkPO(g)
	pi, n, _ := ExhaustivePatterns(2)
	e := NewEngine(c, pi, n)
	// Try replacing AND with OR.
	changed := trialGate(e, g, circuit.Or, c.Fanin(g), nil, false)
	if len(changed) != 1 || changed[0] != g {
		t.Fatalf("changed = %v, want [g]", changed)
	}
	want := []uint64{0b1110} // OR truth table over exhaustive patterns
	if !EqualRows(e.TrialVal(g), want, n) {
		t.Fatalf("TrialVal = %04b, want 1110", e.TrialVal(g)[0]&0xf)
	}
}

func TestEngineTrialEvalInputInverter(t *testing.T) {
	c := circuit.New(4)
	a := c.AddPI("a")
	b := c.AddPI("b")
	g := c.AddGate(circuit.And, a, b)
	c.MarkPO(g)
	pi, n, _ := ExhaustivePatterns(2)
	e := NewEngine(c, pi, n)
	trialGate(e, g, circuit.And, c.Fanin(g), []bool{true, false}, false)
	want := []uint64{0b0100} // AND(NOT a, b)
	if !EqualRows(e.TrialVal(g), want, n) {
		t.Fatalf("TrialVal = %04b, want 0100", e.TrialVal(g)[0]&0xf)
	}
	trialGate(e, g, circuit.And, c.Fanin(g), nil, true)
	want = []uint64{0b0111} // NAND
	if !EqualRows(e.TrialVal(g), want, n) {
		t.Fatalf("output-complement TrialVal = %04b, want 0111", e.TrialVal(g)[0]&0xf)
	}
}

func TestEngineTrialEvalAddedWire(t *testing.T) {
	c := circuit.New(5)
	a := c.AddPI("a")
	b := c.AddPI("b")
	d := c.AddPI("d")
	g := c.AddGate(circuit.And, a, b)
	c.MarkPO(g)
	pi, n, _ := ExhaustivePatterns(3)
	e := NewEngine(c, pi, n)
	trialGate(e, g, circuit.And, []circuit.Line{a, b, d}, nil, false)
	// AND(a,b,d): only pattern 7 (a=b=d=1) is 1.
	want := []uint64{0x80}
	if !EqualRows(e.TrialVal(g), want, n) {
		t.Fatalf("TrialVal = %08b, want 10000000", e.TrialVal(g)[0]&0xff)
	}
}

func TestEngineEventDrivenStopsEarly(t *testing.T) {
	// Chain: x -> BUF -> AND(x, buf) ... forcing buf to its base value on a
	// line deep in a chain must not report downstream changes.
	c := circuit.New(6)
	x := c.AddPI("x")
	b1 := c.AddGate(circuit.Buf, x)
	b2 := c.AddGate(circuit.Buf, b1)
	b3 := c.AddGate(circuit.Buf, b2)
	c.MarkPO(b3)
	pi, n, _ := ExhaustivePatterns(1)
	e := NewEngine(c, pi, n)
	forced := append([]uint64(nil), e.BaseVal(b1)...)
	if got := e.Trial(b1, forced); len(got) != 0 {
		t.Fatalf("no-op force changed %v", got)
	}
	// Complement: everything downstream flips.
	forced[0] = ^forced[0]
	got := e.Trial(b1, forced)
	if len(got) != 3 {
		t.Fatalf("changed = %v, want 3 lines (b1,b2,b3)", got)
	}
}

func TestSequentialBufSemantics(t *testing.T) {
	// The raw simulator treats DFF as a buffer; package scan relies on it.
	c := circuit.New(3)
	x := c.AddPI("x")
	d := c.AddGate(circuit.DFF, x)
	c.MarkPO(d)
	pi, n, _ := ExhaustivePatterns(1)
	val := Simulate(c, pi, n)
	if !EqualRows(val[d], val[x], n) {
		t.Fatal("DFF did not pass its input through")
	}
}

func BenchmarkSimulate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := randomCircuit(rng, 32, 2000)
	n := 2048
	pi := RandomPatterns(len(c.PIs), n, 2)
	c.Topo() // prebuild caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(c, pi, n)
	}
}

func BenchmarkEngineTrial(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := randomCircuit(rng, 32, 2000)
	n := 2048
	pi := RandomPatterns(len(c.PIs), n, 2)
	e := NewEngine(c, pi, n)
	forced := make([]uint64, e.W)
	for i := range forced {
		forced[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Trial(circuit.Line(i%c.NumLines()), forced)
	}
}

func TestSimulateParallelMatchesSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		c := randomCircuit(rng, 5, 60)
		n := 64 * 32 // 32 words: enough for 4 workers at the 8-word floor
		pi := RandomPatterns(len(c.PIs), n, rng.Int63())
		want := Simulate(c, pi, n)
		for _, workers := range []int{0, 1, 2, 3, 4, 16} {
			got := SimulateParallel(c, pi, n, workers)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers %d: SimulateParallel diverges from Simulate", trial, workers)
			}
		}
	}
}

func TestSimulateParallelNarrowFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomCircuit(rng, 4, 30)
	n := 70 // 2 words: below the per-worker floor, must take the sequential path
	pi := RandomPatterns(len(c.PIs), n, rng.Int63())
	if got, want := SimulateParallel(c, pi, n, 8), Simulate(c, pi, n); !reflect.DeepEqual(got, want) {
		t.Fatal("narrow-batch fallback diverges from Simulate")
	}
}
