// Package pathtrace implements the path-trace line-marking procedure of
// Venkataraman and Fuchs that the paper uses as its first diagnosis step.
// For each failing vector, tracing starts at every erroneous primary output
// and walks backward: at a gate with at least one controlling-value input it
// follows all controlling inputs; otherwise it follows all inputs; BUF/NOT
// inputs always count as controlling. The procedure is linear per vector and
// marks at least one line from every set of lines where valid corrections
// exist — for a single fault, the actual fault site is marked on every
// failing vector.
//
// The marks are defined per vector, but Trace computes them for 64 vectors
// per machine word: it keeps one mark row per line, one bit per vector, and
// settles every line's row in a single reverse-topological pass over the
// netlist.
package pathtrace

import (
	"math/bits"
	"sort"

	"dedc/internal/circuit"
	"dedc/internal/sim"
)

// Result aggregates path-trace marks over all failing vectors.
type Result struct {
	// Counts[l] is the number of failing vectors whose trace marked line l.
	Counts []int32
	// Fail is the number of failing vectors processed.
	Fail int
}

// Trace runs path-trace over the first n patterns. val is the simulated
// value matrix of the circuit being diagnosed; specOut holds the expected
// (device/specification) primary output rows in circuit PO order. A vector
// fails when any PO row disagrees with specOut.
//
// Bit v of line l's mark row says whether vector v's trace reaches l. Each
// PO's row starts as its diff row (val ^ specOut, tail-masked), and Fail is
// the popcount of their OR. Lines are then visited in reverse topological
// order, so every reader of a line has passed its marks on before the line
// itself is visited; a line whose row is all zero is skipped, which keeps
// the pass inside the marked cone. At an AND/NAND/OR/NOR with controlling
// value cv, fanin f receives mark & (val[f]==cv | no fanin at cv); BUF, NOT
// and DFF pass the whole row to their fanin, and XOR, XNOR and every other
// type without a controlling value to each fanin; inputs and constants
// stop. Counts[l] is the popcount of l's row.
//
// This is the per-vector procedure with the vectors side by side. Where a
// vector's trace marks a line is decided only by that vector's values, and
// the per-vector walk's visited check merely stops a line from being
// counted twice — which the OR into the row does as well. So Counts is the
// number of failing vectors whose trace marks each line, exactly.
func Trace(c *circuit.Circuit, val [][]uint64, specOut [][]uint64, n int) *Result {
	res := &Result{Counts: make([]int32, c.NumLines())}
	if n <= 0 {
		return res
	}
	w := sim.Words(n)
	storage := make([]uint64, (c.NumLines()+2)*w)
	row := func(l circuit.Line) []uint64 { return storage[int(l)*w : (int(l)+1)*w : (int(l)+1)*w] }
	fail := storage[c.NumLines()*w : (c.NumLines()+1)*w]
	anyCv := storage[(c.NumLines()+1)*w:]
	tail := sim.TailMask(n)
	for i, po := range c.POs {
		m, v, s := row(po), val[po][:w], specOut[i][:w]
		for k := range m {
			m[k] |= v[k] ^ s[k]
		}
		m[w-1] &= tail
		for k := range m {
			fail[k] |= m[k]
		}
	}
	res.Fail = popcount(fail)
	if res.Fail == 0 {
		return res
	}

	topo := c.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		l := topo[i]
		m := row(l)
		cnt := popcount(m)
		if cnt == 0 {
			continue
		}
		res.Counts[l] = int32(cnt)
		g := &c.Gates[l]
		fanin := g.Fanin
		switch g.Type {
		case circuit.Input, circuit.Const0, circuit.Const1:
			continue
		case circuit.Buf, circuit.Not, circuit.DFF:
			fanin = fanin[:1]
		case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
			// flip turns a fanin row into its "at controlling value" row.
			var flip uint64
			if cv, _ := g.Type.ControllingValue(); !cv {
				flip = ^uint64(0)
			}
			clear(anyCv)
			for _, f := range fanin {
				v := val[f][:w]
				for k := range anyCv {
					anyCv[k] |= v[k] ^ flip
				}
			}
			for _, f := range fanin {
				dst, v := row(f), val[f][:w]
				for k := range dst {
					dst[k] |= m[k] & (v[k] ^ flip | ^anyCv[k])
				}
			}
			continue
		}
		for _, f := range fanin {
			dst := row(f)
			for k := range dst {
				dst[k] |= m[k]
			}
		}
	}
	return res
}

// popcount counts the set bits of a tail-masked row.
func popcount(row []uint64) int {
	n := 0
	for _, x := range row {
		n += bits.OnesCount64(x)
	}
	return n
}

// TraceAgainst is a convenience wrapper: it simulates c over pi and traces
// against the provided specification outputs.
func TraceAgainst(c *circuit.Circuit, pi [][]uint64, specOut [][]uint64, n int) *Result {
	val := sim.Simulate(c, pi, n)
	return Trace(c, val, specOut, n)
}

// Top returns the lines with the highest mark counts, keeping the given
// fraction (the paper keeps the top 5–20%) of the lines with nonzero counts,
// and always at least minKeep lines when that many were marked. The kept set
// extends through ties: every line with the same count as the last kept line
// also qualifies (all lines on a single error's sensitized paths carry the
// same count, and cutting among them would drop the error site
// arbitrarily). The result is sorted by descending count, then line index.
func (r *Result) Top(frac float64, minKeep int) []circuit.Line {
	type lc struct {
		l circuit.Line
		c int32
	}
	var marked []lc
	for l, cnt := range r.Counts {
		if cnt > 0 {
			marked = append(marked, lc{circuit.Line(l), cnt})
		}
	}
	sort.Slice(marked, func(i, j int) bool {
		if marked[i].c != marked[j].c {
			return marked[i].c > marked[j].c
		}
		return marked[i].l < marked[j].l
	})
	keep := int(float64(len(marked)) * frac)
	if keep < minKeep {
		keep = minKeep
	}
	if keep > len(marked) {
		keep = len(marked)
	}
	for keep > 0 && keep < len(marked) && marked[keep].c == marked[keep-1].c {
		keep++
	}
	out := make([]circuit.Line, keep)
	for i := 0; i < keep; i++ {
		out[i] = marked[i].l
	}
	return out
}

// AboveFraction returns every line marked on at least frac·Fail of the
// failing-vector traces. By the pigeonhole argument behind the paper's
// Theorem 1, with N active errors some error line is marked on at least
// Fail/N traces, so diagnosing under an assumed error count N keeps lines
// with frac = 1/N.
func (r *Result) AboveFraction(frac float64) []circuit.Line {
	threshold := frac * float64(r.Fail)
	var out []circuit.Line
	for l, cnt := range r.Counts {
		if cnt > 0 && float64(cnt) >= threshold-1e-9 {
			out = append(out, circuit.Line(l))
		}
	}
	return out
}

// Marked returns every line with a nonzero count.
func (r *Result) Marked() []circuit.Line {
	var out []circuit.Line
	for l, cnt := range r.Counts {
		if cnt > 0 {
			out = append(out, circuit.Line(l))
		}
	}
	return out
}

// MarkedCount returns the number of lines with a nonzero count, without
// materializing the line slice — telemetry's kept-vs-dropped accounting
// wants only the size of the marked set.
func (r *Result) MarkedCount() int {
	n := 0
	for _, cnt := range r.Counts {
		if cnt > 0 {
			n++
		}
	}
	return n
}
