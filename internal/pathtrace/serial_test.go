package pathtrace

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/sim"
)

// traceSerial is the per-vector path trace Trace replaced, kept as its
// reference: one depth-first walk from the erroneous POs per failing
// vector, reading one bit at a time, with a per-vector visited mark.
func traceSerial(c *circuit.Circuit, val [][]uint64, specOut [][]uint64, n int) *Result {
	res := &Result{Counts: make([]int32, c.NumLines())}
	visited := make([]int32, c.NumLines())
	for i := range visited {
		visited[i] = -1
	}
	stack := make([]circuit.Line, 0, 128)
	bit := func(row []uint64, v int) bool { return row[v/64]>>(uint(v)%64)&1 == 1 }

	for v := 0; v < n; v++ {
		failing := false
		for i, po := range c.POs {
			if bit(val[po], v) != bit(specOut[i], v) {
				failing = true
				break
			}
		}
		if !failing {
			continue
		}
		vid := int32(res.Fail)
		res.Fail++
		stack = stack[:0]
		for i, po := range c.POs {
			if bit(val[po], v) != bit(specOut[i], v) && visited[po] != vid {
				visited[po] = vid
				res.Counts[po]++
				stack = append(stack, po)
			}
		}
		for len(stack) > 0 {
			l := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g := &c.Gates[l]
			if g.Type == circuit.Input || g.Type == circuit.Const0 || g.Type == circuit.Const1 {
				continue
			}
			push := func(f circuit.Line) {
				if visited[f] != vid {
					visited[f] = vid
					res.Counts[f]++
					stack = append(stack, f)
				}
			}
			cv, hasCtrl := g.Type.ControllingValue()
			if g.Type == circuit.Buf || g.Type == circuit.Not || g.Type == circuit.DFF {
				push(g.Fanin[0])
				continue
			}
			traced := false
			if hasCtrl {
				for _, f := range g.Fanin {
					if bit(val[f], v) == cv {
						push(f)
						traced = true
					}
				}
			}
			if !traced {
				for _, f := range g.Fanin {
					push(f)
				}
			}
		}
	}
	return res
}

// traceTypes is every gate type a traced netlist can hold besides Input.
var traceTypes = []circuit.GateType{
	circuit.And, circuit.Nand, circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor,
	circuit.Buf, circuit.Not, circuit.DFF, circuit.Const0, circuit.Const1,
}

// randomTraceCircuit builds an acyclic netlist over every gate type: some
// gates read the same line on two pins, DFFs act as buffers, and the POs
// include internal lines and, listed twice, one line.
func randomTraceCircuit(rng *rand.Rand, nPI, nGates int) *circuit.Circuit {
	c := circuit.New(nPI + nGates)
	for i := 0; i < nPI; i++ {
		c.AddPI(fmt.Sprintf("i%d", i))
	}
	for g := 0; g < nGates; g++ {
		t := traceTypes[rng.Intn(len(traceTypes))]
		pick := func() circuit.Line { return circuit.Line(rng.Intn(c.NumLines())) }
		var fanin []circuit.Line
		switch t {
		case circuit.Const0, circuit.Const1:
		case circuit.Buf, circuit.Not, circuit.DFF:
			fanin = []circuit.Line{pick()}
		default:
			k := 2 + rng.Intn(4)
			for j := 0; j < k; j++ {
				fanin = append(fanin, pick())
			}
			if rng.Intn(4) == 0 {
				fanin[1] = fanin[0] // the same line on two pins
			}
		}
		c.AddGate(t, fanin...)
	}
	for l := c.NumLines() - 1; l >= nPI && len(c.POs) < 4; l -= 1 + rng.Intn(3) {
		c.MarkPO(circuit.Line(l))
	}
	c.MarkPO(circuit.Line(rng.Intn(c.NumLines())))
	c.POs = append(c.POs, c.POs[0])
	return c
}

// flippedOutputs returns the PO rows of val with roughly one bit in
// density flipped, as the responses of a device that disagrees on some
// vectors. Tail bits beyond n are left as random garbage.
func flippedOutputs(rng *rand.Rand, c *circuit.Circuit, val [][]uint64, density int) [][]uint64 {
	out := make([][]uint64, len(c.POs))
	for i, po := range c.POs {
		row := append([]uint64(nil), val[po]...)
		for k := range row {
			for b := 0; b < 64; b++ {
				if rng.Intn(density) == 0 {
					row[k] ^= 1 << b
				}
			}
		}
		out[i] = row
	}
	return out
}

// columns packs patterns idx[0], idx[1], … of each row into a new row, one
// bit at a time — the failing-vector gather, built independently of sim.
func columns(rows [][]uint64, idx []int) [][]uint64 {
	out := make([][]uint64, len(rows))
	for i, row := range rows {
		dst := make([]uint64, sim.Words(len(idx)))
		for j, p := range idx {
			dst[j/64] |= (row[p/64] >> (p % 64) & 1) << (j % 64)
		}
		out[i] = dst
	}
	return out
}

// failingColumns lists the vectors among the first n on which a PO row
// disagrees with specOut.
func failingColumns(c *circuit.Circuit, val, specOut [][]uint64, n int) []int {
	var idx []int
	for v := 0; v < n; v++ {
		for i, po := range c.POs {
			if (val[po][v/64]^specOut[i][v/64])>>(v%64)&1 == 1 {
				idx = append(idx, v)
				break
			}
		}
	}
	return idx
}

// checkTraceViews compares Trace with traceSerial on the full view of n
// vectors and on the compacted view of its failing vectors alone.
func checkTraceViews(t *testing.T, c *circuit.Circuit, pi, specOut [][]uint64, n int) {
	t.Helper()
	val := sim.Simulate(c, pi, n)
	if got, want := Trace(c, val, specOut, n), traceSerial(c, val, specOut, n); !reflect.DeepEqual(got, want) {
		t.Fatalf("full view, n=%d: Trace differs from the per-vector trace\n got %+v\nwant %+v", n, got, want)
	}
	idx := failingColumns(c, val, specOut, n)
	if len(idx) == 0 {
		return
	}
	cval := sim.Simulate(c, columns(pi, idx), len(idx))
	cspec := columns(specOut, idx)
	got, want := Trace(c, cval, cspec, len(idx)), traceSerial(c, cval, cspec, len(idx))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted view, %d of %d vectors: Trace differs from the per-vector trace\n got %+v\nwant %+v", len(idx), n, got, want)
	}
	if got.Fail != len(idx) {
		t.Fatalf("compacted view: Fail = %d, want every one of %d vectors", got.Fail, len(idx))
	}
}

func TestTraceMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		for _, n := range []int{1, 63, 64, 65, 1024} {
			rng := rand.New(rand.NewSource(seed*7919 + int64(n)))
			c := randomTraceCircuit(rng, 3+rng.Intn(6), 10+rng.Intn(60))
			pi := sim.RandomPatterns(len(c.PIs), n, rng.Int63())
			val := sim.Simulate(c, pi, n)
			// Dense, sparse and no disagreement at all.
			for _, density := range []int{3, 40, 1 << 30} {
				spec := flippedOutputs(rng, c, val, density)
				checkTraceViews(t, c, pi, spec, n)
			}
		}
	}
}

// TestTraceMatchesSerialOnFaults compares the two on real device responses:
// suite and random circuits with one or two injected stuck-at faults.
func TestTraceMatchesSerialOnFaults(t *testing.T) {
	circuits := []*circuit.Circuit{gen.Alu(4), gen.ArrayMultiplier(4)}
	for seed := int64(1); seed <= 4; seed++ {
		circuits = append(circuits, gen.Random(gen.RandomOptions{PIs: 10, Gates: 80, Seed: seed}))
	}
	for ci, c := range circuits {
		for _, n := range []int{65, 1024} {
			pi := sim.RandomPatterns(len(c.PIs), n, int64(ci*31+n))
			for k := 1; k <= 2; k++ {
				fs := fault.PickObservable(c, k, int64(ci+k))
				if fs == nil {
					continue
				}
				dev := fault.Inject(c, fs...)
				checkTraceViews(t, c, pi, sim.Outputs(dev, sim.Simulate(dev, pi, n)), n)
			}
		}
	}
}

func FuzzTrace(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(30), uint16(64), uint8(5))
	f.Add(int64(2), uint8(8), uint8(90), uint16(1024), uint8(30))
	f.Add(int64(3), uint8(1), uint8(2), uint16(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nPI, nGates uint8, n uint16, density uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := randomTraceCircuit(rng, 1+int(nPI%12), 1+int(nGates%120))
		vectors := 1 + int(n%1100)
		pi := sim.RandomPatterns(len(c.PIs), vectors, rng.Int63())
		spec := flippedOutputs(rng, c, sim.Simulate(c, pi, vectors), 2+int(density))
		checkTraceViews(t, c, pi, spec, vectors)
	})
}

// BenchmarkTrace traces one stuck-at fault of c880* over 64 and 1024
// failing vectors, in the compacted view the diagnosis engine traces in:
// every vector of the set fails.
func BenchmarkTrace(b *testing.B) {
	bm, _ := gen.ByName("c880*")
	c := bm.Build()
	const pool = 8192
	pi := sim.RandomPatterns(len(c.PIs), pool, 5)
	var spec [][]uint64
	var idx []int
	for _, s := range fault.Sites(c) {
		spec = deviceOutputs(c, fault.Fault{Site: s, Value: true}, pi, pool)
		if idx = failingColumns(c, sim.Simulate(c, pi, pool), spec, pool); len(idx) >= 1024 {
			break
		}
	}
	if len(idx) < 1024 {
		b.Fatalf("no fault of c880* fails 1024 of %d vectors", pool)
	}
	for _, n := range []int{64, 1024} {
		cpi, cspec := columns(pi, idx[:n]), columns(spec, idx[:n])
		val := sim.Simulate(c, cpi, n)
		b.Run(fmt.Sprintf("c880/fail%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Trace(c, val, cspec, n)
			}
		})
	}
}
