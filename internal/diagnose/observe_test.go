package diagnose

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/gen"
	"dedc/internal/sim"
)

// rowCorr is a single-target correction that forces a fixed value row onto
// its line, so the test can screen arbitrary candidate rows.
type rowCorr struct {
	l   circuit.Line
	row []uint64
}

func (c rowCorr) Target() circuit.Line                  { return c.l }
func (c rowCorr) NewValues(e *sim.Engine, dst []uint64) { copy(dst, c.row[:e.W]) }
func (c rowCorr) Apply(*circuit.Circuit) error          { return nil }
func (c rowCorr) String() string                        { return fmt.Sprintf("row@L%d", c.l) }

// observeNode builds one random node: a random circuit, optionally listing
// one PO line twice, diagnosed against the responses of a device with
// injected design errors over n patterns. When the netlist lists a PO twice
// the reference row of the second entry is perturbed, so the two entries'
// diff rows differ.
func observeNode(t testing.TB, cseed, eseed int64, n int, dupPO bool) (*runState, *expandCtx) {
	t.Helper()
	c := gen.Random(gen.RandomOptions{PIs: 10, Gates: 50, Seed: cseed})
	rng := rand.New(rand.NewSource(eseed))
	if dupPO {
		c = c.Clone()
		c.POs = append(c.POs, c.POs[rng.Intn(len(c.POs))])
	}
	dev, _, err := injectK(c, 1+int(eseed&1), eseed)
	if err != nil {
		return nil, nil
	}
	pi := sim.RandomPatterns(len(c.PIs), n, eseed*17+int64(n))
	specOut := DeviceOutputs(dev, pi, n)
	if dupPO {
		last := specOut[len(specOut)-1]
		for k := 0; k < 3; k++ {
			v := rng.Intn(n)
			last[v/64] ^= 1 << (v % 64)
		}
	}
	r := newExpandRun(context.Background(), c, specOut, pi, n, StuckAtModel{},
		Options{MaxErrors: 2, Workers: 1}, DefaultSchedule()[2])
	ec := r.newExpandCtx(sim.NewEngine(c, pi, n))
	if ec.fails == 0 {
		return nil, nil
	}
	ec.verr = r.failSpace(ec.full, ec.fails)
	return r, ec
}

// candidateRows returns candidate rows for line l in an engine: the base
// row, the base row with only its tail bits changed (when the last word has
// tail bits), the complement, a sparse and a dense random change.
func candidateRows(rng *rand.Rand, e *sim.Engine, l circuit.Line) [][]uint64 {
	base := e.BaseVal(l)
	variant := func(f func(w int, b uint64) uint64) []uint64 {
		row := make([]uint64, e.W)
		for w := range row {
			row[w] = f(w, base[w])
		}
		return row
	}
	rows := [][]uint64{
		variant(func(_ int, b uint64) uint64 { return b }),
		variant(func(_ int, b uint64) uint64 { return ^b }),
		variant(func(_ int, b uint64) uint64 { return b ^ rng.Uint64()&rng.Uint64()&rng.Uint64() }),
		variant(func(_ int, _ uint64) uint64 { return rng.Uint64() }),
	}
	if tail := sim.TailMask(e.N); tail != ^uint64(0) {
		rows = append(rows, variant(func(w int, b uint64) uint64 {
			if w == e.W-1 {
				return b ^ (^tail&rng.Uint64() | 1<<63)
			}
			return b
		}))
	}
	return rows
}

// checkObservability scores random candidate rows at random target lines,
// every PO line among them, from observability rows in the node's full
// view and, when it is gathered, its Verr view, and requires the outcome
// and every count of the propagating trial: fullTrial at full width,
// verrPropagate in the Verr view. It tallies the full-width outcomes into
// seen and returns whether the Verr view was gathered.
func checkObservability(t testing.TB, label string, r *runState, ec *expandCtx, rng *rand.Rand, seen map[screenOutcome]int) bool {
	t.Helper()
	targets := append([]circuit.Line(nil), ec.ckt.POs...)
	for k := 0; k < 8; k++ {
		targets = append(targets, circuit.Line(rng.Intn(ec.ckt.NumLines())))
	}
	gathered := ec.verr.e != ec.full.e
	for _, l := range targets {
		for _, cand := range candidateRows(rng, ec.full.e, l) {
			corr := rowCorr{l, cand}
			for _, h3 := range []float64{1, 0.95, 0} {
				r.params.H3 = h3
				copy(r.rows.cand, cand)
				got := r.rowTrial(ec, &ec.full, l)
				want := r.fullTrial(ec, corr)
				if got != want {
					t.Fatalf("%s: full view, L%d h3=%v: rows %+v, propagation %+v", label, l, h3, got, want)
				}
				if seen != nil {
					seen[got.outcome]++
				}
			}
		}
		if !gathered {
			continue
		}
		for _, cand := range candidateRows(rng, ec.verr.e, l) {
			corr := rowCorr{l, cand}
			copy(r.rows.cand, cand)
			got := r.verrTrial(ec, corr)
			want := r.verrPropagate(ec, corr)
			if got != want {
				t.Fatalf("%s: Verr view, L%d: rows %+v, propagation %+v", label, l, got, want)
			}
		}
	}
	return gathered
}

// TestObservabilityMatchesTrial: on random circuits, with and without a PO
// line listed twice, scoring a candidate row from its target line's
// observability rows gives the outcome, rectified bits, fixed vectors and
// newly failing vectors of propagating the row, in the full view and in
// the gathered Verr view.
func TestObservabilityMatchesTrial(t *testing.T) {
	gathered, inPlace := 0, 0
	seen := map[screenOutcome]int{}
	for seed := int64(1); seed <= 6; seed++ {
		for _, n := range []int{40, 130, 200} {
			for _, dup := range []bool{false, true} {
				r, ec := observeNode(t, seed, seed+10, n, dup)
				if r == nil {
					continue
				}
				label := fmt.Sprintf("seed%d/n%d/dup=%v", seed, n, dup)
				if checkObservability(t, label, r, ec, rand.New(rand.NewSource(seed)), seen) {
					gathered++
				} else {
					inPlace++
				}
			}
		}
	}
	if gathered == 0 || inPlace == 0 {
		t.Errorf("cases cover %d gathered and %d in-place Verr views; want both", gathered, inPlace)
	}
	for _, o := range []screenOutcome{screenNoChange, screenNewFails, screenKept} {
		if seen[o] == 0 {
			t.Errorf("no full-width screen had outcome %d (seen %v)", o, seen)
		}
	}
	t.Logf("%d gathered and %d in-place nodes; full-width outcomes %v", gathered, inPlace, seen)
}

// FuzzObservability is TestObservabilityMatchesTrial on fuzzed circuit,
// error and row seeds.
func FuzzObservability(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(0))
	f.Add(int64(5), int64(9), uint8(7))
	f.Fuzz(func(t *testing.T, cseed, eseed int64, pick uint8) {
		n := []int{40, 100, 130, 200}[pick&3]
		r, ec := observeNode(t, cseed, eseed, n, pick&4 != 0)
		if r == nil {
			return
		}
		checkObservability(t, "fuzz", r, ec, rand.New(rand.NewSource(cseed^eseed)), nil)
	})
}
