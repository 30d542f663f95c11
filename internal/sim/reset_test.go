package sim

import (
	"math/rand"
	"slices"
	"testing"

	"dedc/internal/circuit"
)

// TestResetMatchesNewEngine rebuilds one engine, again and again, for
// circuits whose line counts and pattern widths grow and shrink, and
// checks each rebuild against a fresh NewEngine bit for bit, tail bits
// included. Before every rebuild the engine runs trials (leaving stamps,
// queue marks and pins at recent epochs) and is poisoned, so a rebuild
// that read stale storage or a stale mark would diverge. After the rebuild
// both engines run the same Trial, TrialMulti (with a pinned line),
// TrialEvalPin and EvalCandidate calls, which must agree too.
func TestResetMatchesNewEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := []struct{ gates, n int }{
		{20, 130}, {60, 300}, {10, 64}, {60, 70}, {90, 1000}, {5, 1}, {40, 129}, {40, 129},
	}
	re := NewEngine(randomCircuit(rng, 3, 8), RandomPatterns(3, 200, 1), 200)
	for i, sh := range shapes {
		runTrials(rng, re)
		re.Poison(0xdeadbeefcafef00d)
		if i == 6 {
			re.epoch = epochLimit // the next Reset clears the marks and restarts the count
		}
		c := randomCircuit(rng, 2+rng.Intn(5), sh.gates)
		pi := RandomPatterns(len(c.PIs), sh.n, rng.Int63()) // tail bits random too
		re.Reset(c, pi, sh.n)
		fresh := NewEngine(c, pi, sh.n)
		if re.N != fresh.N || re.W != fresh.W || len(re.Values()) != len(fresh.Values()) {
			t.Fatalf("shape %d: N/W/lines %d/%d/%d, fresh %d/%d/%d", i,
				re.N, re.W, len(re.Values()), fresh.N, fresh.W, len(fresh.Values()))
		}
		sameRows(t, i, "base", re.Values(), fresh.Values(), re.W)
		if len(re.Changed()) != 0 {
			t.Fatalf("shape %d: Changed() = %v after Reset", i, re.Changed())
		}
		for v := 0; v < 2; v++ {
			if !equalWords(re.ConstRow(v == 1), fresh.ConstRow(v == 1), re.W) || len(re.ConstRow(v == 1)) != re.W {
				t.Fatalf("shape %d: ConstRow(%v) differs", i, v == 1)
			}
		}
		seed := rng.Int63()
		ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for k := 0; k < 20; k++ {
			ca, oa := trialStep(ra, re)
			cb, ob := trialStep(rb, fresh)
			if !slices.Equal(ca, cb) || !slices.Equal(oa, ob) {
				t.Fatalf("shape %d step %d: changed %v, fresh %v", i, k, ca, cb)
			}
			for l := range re.Values() {
				if !equalWords(re.TrialVal(circuit.Line(l)), fresh.TrialVal(circuit.Line(l)), re.W) {
					t.Fatalf("shape %d step %d: TrialVal(%d) differs", i, k, l)
				}
			}
		}
	}
}

// runTrials runs a few trials of every kind on e.
func runTrials(rng *rand.Rand, e *Engine) {
	for k := 0; k < 5; k++ {
		trialStep(rng, e)
	}
}

// trialStep runs one randomly chosen trial on e, drawing every choice from
// rng, and returns a copy of the changed lines. The row-only EvalCandidate
// changes none; it returns the row it evaluated instead.
func trialStep(rng *rand.Rand, e *Engine) ([]circuit.Line, []uint64) {
	lines := len(e.Values())
	l := circuit.Line(rng.Intn(lines))
	row := make([]uint64, e.W)
	for w := range row {
		row[w] = rng.Uint64()
	}
	switch rng.Intn(4) {
	case 0:
		return append([]circuit.Line(nil), e.Trial(l, row)...), nil
	case 1:
		// The second line is forced to its own base value: it must stay
		// pinned when propagation from the first washes over it.
		m := circuit.Line(rng.Intn(lines))
		if m == l {
			return append([]circuit.Line(nil), e.Trial(l, row)...), nil
		}
		return append([]circuit.Line(nil), e.TrialMulti([]circuit.Line{l, m}, [][]uint64{row, e.BaseVal(m)})...), nil
	case 2:
		g := e.C.Gates[l]
		if len(g.Fanin) == 0 {
			return append([]circuit.Line(nil), e.Trial(l, row)...), nil
		}
		return append([]circuit.Line(nil), e.TrialEvalPin(l, g.Type, g.Fanin, rng.Intn(len(g.Fanin)), e.ConstRow(rng.Intn(2) == 1))...), nil
	default:
		g := e.C.Gates[l]
		if len(g.Fanin) == 0 {
			return nil, nil
		}
		comp := make([]bool, len(g.Fanin))
		comp[rng.Intn(len(comp))] = true
		e.EvalCandidate(row, circuit.Nand, g.Fanin, comp, rng.Intn(2) == 1)
		return nil, row
	}
}

func sameRows(t *testing.T, shape int, what string, a, b [][]uint64, w int) {
	t.Helper()
	for l := range a {
		if !equalWords(a[l], b[l], w) {
			t.Fatalf("shape %d: %s row %d differs: %x vs %x", shape, what, l, a[l][:w], b[l][:w])
		}
	}
}

// TestSimulateIntoOverwritesRows checks that SimulateInto's result does not
// depend on what the rows held: poisoned rows from a Matrix give the same
// words, tail bits included, as Simulate's fresh ones, whether the matrix
// grows or shrinks between calls.
func TestSimulateIntoOverwritesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var m Matrix
	for i, sh := range []struct{ gates, n int }{{30, 100}, {80, 700}, {10, 65}, {80, 700}} {
		c := randomCircuit(rng, 4, sh.gates)
		pi := RandomPatterns(len(c.PIs), sh.n, rng.Int63())
		w := Words(sh.n)
		val := m.Rows(c.NumLines(), w)
		for _, row := range val {
			for k := range row {
				row[k] = 0x5555aaaa5555aaaa
			}
		}
		SimulateInto(val, c, pi, sh.n)
		sameRows(t, i, "simulated", val, Simulate(c, pi, sh.n), w)
	}
}
