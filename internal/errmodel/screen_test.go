package errmodel

import (
	"math/bits"
	"math/rand"
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/gen"
	"dedc/internal/sim"
)

// screenFixture is a hand-built circuit holding every shape the Screen's
// word loops special-case: 1-fanin BUF/NOT targets (the AddWire restore
// types), XOR/XNOR targets, wide AND/OR gates and gates listing the same
// fanin on two pins.
func screenFixture(t testing.TB) *circuit.Circuit {
	c := circuit.New(32)
	a, b, d, e := c.AddPI("a"), c.AddPI("b"), c.AddPI("d"), c.AddPI("e")
	buf := c.AddGate(circuit.Buf, a)
	not := c.AddGate(circuit.Not, b)
	x := c.AddGate(circuit.Xor, buf, not)
	xn := c.AddGate(circuit.Xnor, d, x, e)
	dupAnd := c.AddGate(circuit.And, a, a, d)
	dupNor := c.AddGate(circuit.Nor, not, b, not)
	or4 := c.AddGate(circuit.Or, x, xn, e, dupAnd)
	nand := c.AddGate(circuit.Nand, or4, dupNor, buf)
	nb := c.AddGate(circuit.Not, nand)
	bb := c.AddGate(circuit.Buf, dupNor)
	for _, po := range []circuit.Line{nb, bb, xn} {
		c.MarkPO(po)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// randomEngine simulates c over n patterns whose PI rows are random in every
// word, tail bits included, so the tail bits of every row are live.
func randomEngine(c *circuit.Circuit, n int, rng *rand.Rand) *sim.Engine {
	w := sim.Words(n)
	pi := make([][]uint64, len(c.PIs))
	for i := range pi {
		pi[i] = make([]uint64, w)
		for k := range pi[i] {
			pi[i][k] = rng.Uint64()
		}
	}
	return sim.NewEngine(c, pi, n)
}

// screenMasks returns the masks the differential check counts under: every
// bit, every valid bit (a partial tail mask when n is not a multiple of 64),
// and a random mask over every word, tail bits included.
func screenMasks(n int, rng *rand.Rand) [][]uint64 {
	w := sim.Words(n)
	all, valid, random := make([]uint64, w), make([]uint64, w), make([]uint64, w)
	for k := range all {
		all[k], valid[k], random[k] = ^uint64(0), ^uint64(0), rng.Uint64()
	}
	valid[w-1] = sim.TailMask(n)
	return [][]uint64{all, valid, random}
}

// checkScreen compares Screen.Complement with popcount((NewValues ^ base) &
// mask) for every Walk candidate at every line of e's circuit, with every
// line a wire source. It returns the number of candidates checked.
func checkScreen(t testing.TB, e *sim.Engine, masks [][]uint64) int {
	c := e.C
	srcs := make([]circuit.Line, c.NumLines())
	for i := range srcs {
		srcs[i] = circuit.Line(i)
	}
	var sc Screen
	row := make([]uint64, e.W)
	checked := 0
	for _, mask := range masks {
		for l := circuit.Line(0); int(l) < c.NumLines(); l++ {
			sc.Reset(e, l, mask)
			base := e.BaseVal(l)
			sc.Walk(srcs, func(m Mod) bool {
				m.NewValues(e, row)
				want := 0
				for k := range row {
					want += bits.OnesCount64((row[k] ^ base[k]) & mask[k])
				}
				if got := sc.Complement(m); got != want {
					t.Fatalf("n=%d %v (target %s): Complement = %d, NewValues gives %d",
						e.N, m, c.Gates[l].Type, got, want)
				}
				checked++
				return true
			})
		}
	}
	return checked
}

func TestScreenMatchesNewValues(t *testing.T) {
	type ckt struct {
		name string
		c    *circuit.Circuit
	}
	ckts := []ckt{{"fixture", screenFixture(t)}}
	for _, bm := range gen.SmallSuite() {
		ckts = append(ckts, ckt{bm.Name, bm.Build()})
	}
	ckts = append(ckts,
		ckt{"random-f6", gen.Random(gen.RandomOptions{PIs: 9, Gates: 60, Seed: 11, MaxFanin: 6})},
		ckt{"random-f2", gen.Random(gen.RandomOptions{PIs: 5, Gates: 40, Seed: 12, MaxFanin: 2})})
	// Below one word, exactly one word, and several words with a tail.
	widths := []int{37, 64, 200}
	if testing.Short() {
		ckts, widths = ckts[:2], []int{37, 200}
	}
	rng := rand.New(rand.NewSource(1))
	kinds := map[Kind]bool{}
	for _, k := range ckts {
		for _, n := range widths {
			e := randomEngine(k.c, n, rng)
			if checkScreen(t, e, screenMasks(n, rng)) == 0 {
				t.Fatalf("%s: no candidates checked", k.name)
			}
		}
		for l := circuit.Line(0); int(l) < k.c.NumLines(); l++ {
			Walk(k.c, l, []circuit.Line{0}, func(m Mod) bool {
				kinds[m.Kind] = true
				return true
			})
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		if !kinds[k] {
			t.Errorf("no %v candidate checked", k)
		}
	}
}

// TestScreenFixtureShapes pins down that the fixture holds the shapes it is
// there for, so the differential check above covers them.
func TestScreenFixtureShapes(t *testing.T) {
	c := screenFixture(t)
	var restore, xorTarget, dupPin bool
	for l := circuit.Line(0); int(l) < c.NumLines(); l++ {
		g := &c.Gates[l]
		switch g.Type {
		case circuit.Xor, circuit.Xnor:
			xorTarget = true
		}
		for p, f := range g.Fanin {
			for _, f2 := range g.Fanin[p+1:] {
				dupPin = dupPin || f == f2
			}
		}
		for _, m := range Enumerate(c, l, []circuit.Line{0, 1, 2, 3}) {
			restore = restore || (m.Kind == AddWire && m.NewType != circuit.Input)
		}
	}
	if !restore || !xorTarget || !dupPin {
		t.Fatalf("fixture shapes: restore=%v xor=%v dup-pin=%v", restore, xorTarget, dupPin)
	}
}

func TestWalkStops(t *testing.T) {
	c := gen.Alu(4)
	srcs := make([]circuit.Line, c.NumLines())
	for i := range srcs {
		srcs[i] = circuit.Line(i)
	}
	l := c.POs[0]
	all := Enumerate(c, l, srcs)
	if len(all) < 3 {
		t.Fatalf("only %d candidates at L%d", len(all), l)
	}
	for _, stopAt := range []int{1, 2, len(all) / 2, len(all)} {
		var got []Mod
		Walk(c, l, srcs, func(m Mod) bool {
			got = append(got, m)
			return len(got) < stopAt
		})
		if len(got) != stopAt {
			t.Fatalf("yield returned false at call %d, but Walk made %d calls", stopAt, len(got))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("call %d yielded %v, Enumerate lists %v", i, got[i], all[i])
			}
		}
	}
	var sc Screen
	e := sim.NewEngine(c, sim.RandomPatterns(len(c.PIs), 64, 1), 64)
	sc.Reset(e, l, e.ConstRow(true))
	calls := 0
	sc.Walk(srcs, func(Mod) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("Screen.Walk made %d calls after yield returned false", calls)
	}
}

// FuzzScreen checks Screen.Complement against NewValues on random circuits,
// widths and masks.
func FuzzScreen(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(30), uint8(4), uint16(37))
	f.Add(int64(2), uint8(3), uint8(12), uint8(2), uint16(64))
	f.Add(int64(3), uint8(6), uint8(20), uint8(7), uint16(130))
	f.Fuzz(func(t *testing.T, seed int64, pis, gates, fanin uint8, n uint16) {
		opt := gen.RandomOptions{
			PIs:      2 + int(pis)%10,
			Gates:    1 + int(gates)%48,
			Seed:     seed,
			MaxFanin: 2 + int(fanin)%6,
		}
		c := gen.Random(opt)
		width := 1 + int(n)%300
		rng := rand.New(rand.NewSource(seed))
		checkScreen(t, randomEngine(c, width, rng), screenMasks(width, rng))
	})
}
