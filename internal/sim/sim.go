// Package sim implements 64-bit parallel-pattern logic simulation for the
// netlists of package circuit, plus an event-driven trial engine that lets
// callers ask "what if line l took these values?" without disturbing the
// base simulation state. The trial engine is the computational core behind
// the paper's heuristics. Package diagnose runs two engines per search node:
// one over the failing vectors alone (gathered with GatherMask), which
// carries heuristic 1 (invert Verr and propagate) and the Theorem-1 screen
// (a local gate evaluation over Verr, or for a design-error wire candidate
// one word op over its base rows), and one over all of V, which carries
// the Vcorr screen (fanout-cone propagation of a candidate correction) and
// the ranking.
//
// Values are stored one row per line, packed 64 patterns per uint64 word.
// Bits beyond the pattern count are unspecified garbage; every counting and
// comparison helper therefore takes the pattern count n and masks the tail.
//
// Storage can outlive a simulation. SimulateInto writes into rows the caller
// owns (a Matrix keeps them between calls), and Engine.Reset rebuilds an
// engine for another circuit in the engine's own rows. Either way the
// simulation overwrites every word it computes, tail bits included, so a
// result never depends on what the storage held before; and either way
// the rows belong to their owner, so a row read before the storage is
// reused is overwritten by the reuse. A caller that hands an engine over
// to be Reset has released it and must not read it again.
package sim

import (
	"context"
	"errors"
	"math/bits"
	"math/rand"
	"sync"

	"dedc/internal/circuit"
)

// ErrTooManyInputs is returned by ExhaustivePatterns when the requested
// input count would need more than 2^20 patterns.
var ErrTooManyInputs = errors.New("exhaustive patterns limited to 20 inputs")

// Words returns the number of uint64 words needed for n patterns.
func Words(n int) int { return (n + 63) / 64 }

// TailMask returns the mask of valid bits in the last word for n patterns.
func TailMask(n int) uint64 {
	if r := n % 64; r != 0 {
		return (uint64(1) << r) - 1
	}
	return ^uint64(0)
}

// RandomPatterns returns nPI rows of n random patterns from the seed.
func RandomPatterns(nPI, n int, seed int64) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	w := Words(n)
	rows := make([][]uint64, nPI)
	for i := range rows {
		row := make([]uint64, w)
		for j := range row {
			row[j] = rng.Uint64()
		}
		rows[i] = row
	}
	return rows
}

// exhaustiveMasks[i] has bit b set iff bit i of b is set (b in 0..63): the
// word that ExhaustivePatterns repeats in the row of PI i < 6.
var exhaustiveMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// ExhaustivePatterns returns all 2^nPI input combinations (nPI <= 20), one
// row per PI, and the pattern count. Pattern p assigns bit (p>>i)&1 to PI i;
// bits past the pattern count are zero. nPI outside [0, 20] returns
// ErrTooManyInputs instead of panicking.
//
// Rows are built a word at a time: pattern p = 64j+b sits at bit b of word
// j, so PI i < 6 repeats exhaustiveMasks[i] in every word and PI i >= 6 is
// all ones in word j exactly when bit i-6 of j is set.
func ExhaustivePatterns(nPI int) ([][]uint64, int, error) {
	if nPI < 0 || nPI > 20 {
		return nil, 0, ErrTooManyInputs
	}
	n := 1 << nPI
	w := Words(n)
	rows := make([][]uint64, nPI)
	storage := make([]uint64, nPI*w)
	for i := range rows {
		row := storage[i*w : (i+1)*w : (i+1)*w]
		if i < len(exhaustiveMasks) {
			for j := range row {
				row[j] = exhaustiveMasks[i]
			}
		} else {
			for j := range row {
				if j>>(i-len(exhaustiveMasks))&1 == 1 {
					row[j] = ^uint64(0)
				}
			}
		}
		row[w-1] &= TailMask(n)
		rows[i] = row
	}
	return rows, n, nil
}

// EvalGateInto computes the word-parallel output of a gate of type t over
// the given fanin value rows, writing w words into out. Fanin rows must each
// have at least w words, and out must not alias any fanin row: the AND, OR
// and XOR families accumulate into out one fanin at a time. DFF is treated
// as a transparent buffer (package scan is responsible for giving
// sequential circuits combinational meaning).
func EvalGateInto(t circuit.GateType, out []uint64, w int, fanin ...[]uint64) {
	out = out[:w]
	switch t {
	case circuit.Const0:
		for i := range out {
			out[i] = 0
		}
	case circuit.Const1:
		for i := range out {
			out[i] = ^uint64(0)
		}
	case circuit.Input:
		// Inputs carry externally assigned values; nothing to compute.
	case circuit.Buf, circuit.DFF:
		copy(out, fanin[0][:w])
	case circuit.Not:
		a := fanin[0][:w]
		for i := range out {
			out[i] = ^a[i]
		}
	case circuit.And, circuit.Nand:
		evalAnd(out, fanin, invMask(t == circuit.Nand))
	case circuit.Or, circuit.Nor:
		evalOr(out, fanin, invMask(t == circuit.Nor))
	case circuit.Xor, circuit.Xnor:
		evalXor(out, fanin, invMask(t == circuit.Xnor))
	default:
		panic("sim: cannot evaluate gate type " + t.String())
	}
}

// evalAnd, evalOr and evalXor are the multi-input kernels of EvalGateInto.
// They loop fanin-outer and word-inner: gates of up to three inputs are one
// fused pass, wider gates fold each further fanin into out with one tight
// pass per fanin. m is the output inversion mask (all ones for the
// inverting type), XORed in once per word.
func evalAnd(out []uint64, fanin [][]uint64, m uint64) {
	a := fanin[0][:len(out)]
	switch len(fanin) {
	case 1:
		for i := range out {
			out[i] = a[i] ^ m
		}
	case 2:
		b := fanin[1][:len(out)]
		for i := range out {
			out[i] = (a[i] & b[i]) ^ m
		}
	case 3:
		b, c := fanin[1][:len(out)], fanin[2][:len(out)]
		for i := range out {
			out[i] = (a[i] & b[i] & c[i]) ^ m
		}
	default:
		b, c := fanin[1][:len(out)], fanin[2][:len(out)]
		for i := range out {
			out[i] = a[i] & b[i] & c[i]
		}
		for _, f := range fanin[3:] {
			f = f[:len(out)]
			for i := range out {
				out[i] &= f[i]
			}
		}
		if m != 0 {
			invertRow(out)
		}
	}
}

func evalOr(out []uint64, fanin [][]uint64, m uint64) {
	a := fanin[0][:len(out)]
	switch len(fanin) {
	case 1:
		for i := range out {
			out[i] = a[i] ^ m
		}
	case 2:
		b := fanin[1][:len(out)]
		for i := range out {
			out[i] = (a[i] | b[i]) ^ m
		}
	case 3:
		b, c := fanin[1][:len(out)], fanin[2][:len(out)]
		for i := range out {
			out[i] = (a[i] | b[i] | c[i]) ^ m
		}
	default:
		b, c := fanin[1][:len(out)], fanin[2][:len(out)]
		for i := range out {
			out[i] = a[i] | b[i] | c[i]
		}
		for _, f := range fanin[3:] {
			f = f[:len(out)]
			for i := range out {
				out[i] |= f[i]
			}
		}
		if m != 0 {
			invertRow(out)
		}
	}
}

func evalXor(out []uint64, fanin [][]uint64, m uint64) {
	a := fanin[0][:len(out)]
	switch len(fanin) {
	case 1:
		for i := range out {
			out[i] = a[i] ^ m
		}
	case 2:
		b := fanin[1][:len(out)]
		for i := range out {
			out[i] = (a[i] ^ b[i]) ^ m
		}
	case 3:
		b, c := fanin[1][:len(out)], fanin[2][:len(out)]
		for i := range out {
			out[i] = (a[i] ^ b[i] ^ c[i]) ^ m
		}
	default:
		b, c := fanin[1][:len(out)], fanin[2][:len(out)]
		for i := range out {
			out[i] = a[i] ^ b[i] ^ c[i]
		}
		for _, f := range fanin[3:] {
			f = f[:len(out)]
			for i := range out {
				out[i] ^= f[i]
			}
		}
		if m != 0 {
			invertRow(out)
		}
	}
}

// invMask returns the XOR mask that applies an output inversion.
func invMask(inv bool) uint64 {
	if inv {
		return ^uint64(0)
	}
	return 0
}

func invertRow(row []uint64) {
	for i := range row {
		row[i] = ^row[i]
	}
}

// Simulate runs a full parallel-pattern simulation. pi holds one row per
// primary input in circuit PI order; n is the pattern count. The returned
// matrix has one row per line.
func Simulate(c *circuit.Circuit, pi [][]uint64, n int) [][]uint64 {
	val, _ := SimulateContext(nil, c, pi, n)
	return val
}

// simCheckInterval is how many gates a batch simulation evaluates between
// context polls: coarse enough to stay off the hot path, fine enough that
// cancelling a multi-million-gate batch takes effect promptly.
const simCheckInterval = 4096

// SimulateContext is Simulate under a context: every simCheckInterval gate
// evaluations the context is polled, and on cancellation the partially
// filled value matrix is returned along with ctx.Err(). A nil ctx skips the
// polling entirely (the Simulate fast path).
func SimulateContext(ctx context.Context, c *circuit.Circuit, pi [][]uint64, n int) ([][]uint64, error) {
	var m Matrix // fresh storage: the caller owns the result
	val := m.Rows(c.NumLines(), Words(n))
	return val, simulateRows(ctx, c, val, pi, Words(n))
}

// SimulateInto is Simulate into caller-owned rows: val holds one row of at
// least Words(n) words per line, and every row's first Words(n) words are
// overwritten, tail bits included, so the result does not depend on what
// the rows held before. A Matrix keeps such rows across simulations.
func SimulateInto(val [][]uint64, c *circuit.Circuit, pi [][]uint64, n int) {
	simulateRows(nil, c, val, pi, Words(n))
}

// simulateRows is the one simulation body: it copies the first w words of
// the PI rows into val and evaluates every gate over w words in
// topological order, polling ctx (when non-nil) every simCheckInterval
// gates.
func simulateRows(ctx context.Context, c *circuit.Circuit, val, pi [][]uint64, w int) error {
	for i, p := range c.PIs {
		copy(val[p][:w], pi[i][:w])
	}
	var buf [8][]uint64
	scratch := buf[:0]
	for k, l := range c.Topo() {
		if ctx != nil && k%simCheckInterval == simCheckInterval-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		g := &c.Gates[l]
		if g.Type == circuit.Input {
			continue
		}
		scratch = scratch[:0]
		for _, f := range g.Fanin {
			scratch = append(scratch, val[f])
		}
		EvalGateInto(g.Type, val[l], w, scratch...)
	}
	return nil
}

// Matrix is value-matrix storage that outlives one simulation: Rows carves
// rows from a slab it keeps, growing it only when a larger matrix is asked
// for, so a caller that simulates circuit after circuit of similar size
// allocates once.
type Matrix struct {
	rows [][]uint64
	slab []uint64
}

// Rows returns lines rows of w words each. Their contents are whatever the
// storage last held, and every slice Rows returned before is invalidated:
// the rows share its storage.
func (m *Matrix) Rows(lines, w int) [][]uint64 {
	if need := lines * w; cap(m.slab) < need {
		m.slab = make([]uint64, need)
	}
	if cap(m.rows) < lines {
		m.rows = make([][]uint64, lines)
	}
	m.rows = m.rows[:lines]
	for i := range m.rows {
		m.rows[i] = m.slab[i*w : (i+1)*w : (i+1)*w]
	}
	return m.rows
}

// simParallelMinWords is the smallest word count per worker that makes
// sharding a batch simulation worthwhile; below it SimulateParallel falls
// back to the sequential Simulate.
const simParallelMinWords = 8

// SimulateParallel is Simulate with the pattern words sharded across
// workers: each worker runs the full topological walk over views of its
// own word range, so the result is bit-identical to Simulate for any worker
// count (per-pattern values never depend on other patterns). Narrow batches
// fall back to the sequential path.
func SimulateParallel(c *circuit.Circuit, pi [][]uint64, n, workers int) [][]uint64 {
	w := Words(n)
	if workers > w/simParallelMinWords {
		workers = w / simParallelMinWords
	}
	if workers <= 1 {
		return Simulate(c, pi, n)
	}
	var m Matrix
	val := m.Rows(c.NumLines(), w)
	c.Topo() // warm the cache on the calling goroutine
	var wg sync.WaitGroup
	for sh := 0; sh < workers; sh++ {
		lo, hi := sh*w/workers, (sh+1)*w/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			simulateRows(nil, c, shard(val, lo, hi), shard(pi, lo, hi), hi-lo)
		}(lo, hi)
	}
	wg.Wait()
	return val
}

// shard returns views of words [lo, hi) of rows.
func shard(rows [][]uint64, lo, hi int) [][]uint64 {
	out := make([][]uint64, len(rows))
	for i, row := range rows {
		out[i] = row[lo:hi:hi]
	}
	return out
}

// Outputs extracts the PO rows of a value matrix, in circuit PO order.
func Outputs(c *circuit.Circuit, val [][]uint64) [][]uint64 {
	out := make([][]uint64, len(c.POs))
	for i, po := range c.POs {
		out[i] = val[po]
	}
	return out
}

// DiffMask ORs together the XOR of corresponding rows: bit i of the result
// is set iff pattern i disagrees on at least one row. Rows must align.
func DiffMask(a, b [][]uint64, n int) []uint64 {
	w := Words(n)
	m := make([]uint64, w)
	for r := range a {
		for i := 0; i < w; i++ {
			m[i] |= a[r][i] ^ b[r][i]
		}
	}
	m[w-1] &= TailMask(n)
	return m
}

// Popcount counts set bits among the first n positions of row.
func Popcount(row []uint64, n int) int {
	w := Words(n)
	t := 0
	for i := 0; i < w-1; i++ {
		t += bits.OnesCount64(row[i])
	}
	t += bits.OnesCount64(row[w-1] & TailMask(n))
	return t
}

// ReversePatterns returns copies of the packed rows with the first n
// patterns in reverse order: output pattern j carries input pattern n-1-j,
// and the tail bits are zero. It is the verified-results gate's "different
// vector order" — the gate in diagnose re-proves solutions over the same
// vector set reversed, so a result can never depend on an order-sensitive
// bug in the incremental engine. Reversing every bit of the row's 64·W-bit
// span puts pattern p at 64·W-1-p; one funnel shift down by 64·W-n then
// moves it to n-1-p. Each word costs one bits.Reverse64.
func ReversePatterns(rows [][]uint64, n int) [][]uint64 {
	w := Words(n)
	s := uint(64*w - n)
	out := make([][]uint64, len(rows))
	storage := make([]uint64, len(rows)*w)
	for i, row := range rows {
		dst := storage[i*w : (i+1)*w : (i+1)*w]
		if w > 0 {
			lo := bits.Reverse64(row[w-1])
			for k := range dst {
				var hi uint64
				if k+1 < w {
					hi = bits.Reverse64(row[w-2-k])
				}
				dst[k] = lo>>s | hi<<(64-s)
				lo = hi
			}
		}
		out[i] = dst
	}
	return out
}

// GatherMask returns copies of the packed rows holding only the patterns
// whose bit is set in mask, in ascending order: Popcount(mask) patterns in
// Words(Popcount(mask)) words per row, tail bits zero. It builds the
// per-node failing-vector engine in diagnose, which gathers the failing
// columns of V. Each mask word is compressed with the parallel-suffix
// method of Hacker's Delight §7-1: its six move masks are computed once and
// then shared by every row, and the compressed word is funnelled in at the
// running bit offset.
func GatherMask(rows [][]uint64, mask []uint64) [][]uint64 {
	total := 0
	for _, m := range mask {
		total += bits.OnesCount64(m)
	}
	w := Words(total)
	out := make([][]uint64, len(rows))
	storage := make([]uint64, len(rows)*w)
	for i := range rows {
		out[i] = storage[i*w : (i+1)*w : (i+1)*w]
	}
	pos := 0
	for k, m := range mask {
		if m == 0 {
			continue
		}
		mv, c := compressMasks(m), bits.OnesCount64(m)
		off, at := uint(pos&63), pos>>6
		spill := int(off)+c > 64
		for i, row := range rows {
			x := row[k] & m
			for j, v := range mv {
				t := x & v
				x = x ^ t | t>>(1<<j)
			}
			dst := out[i]
			dst[at] |= x << off
			if spill {
				dst[at+1] |= x >> (64 - off)
			}
		}
		pos += c
	}
	return out
}

// compressMasks returns the six move masks that compress the bits of a word
// selected by m down to its low end (Hacker's Delight §7-1, compress): step
// j moves the bits in mv[j] right by 2^j.
func compressMasks(m uint64) [6]uint64 {
	var mv [6]uint64
	mk := ^m << 1 // counts the zeros to the right of each bit
	for j := range mv {
		mp := mk ^ mk<<1 // parallel suffix
		mp ^= mp << 2
		mp ^= mp << 4
		mp ^= mp << 8
		mp ^= mp << 16
		mp ^= mp << 32
		mv[j] = mp & m
		m = m ^ mv[j] | mv[j]>>(1<<j)
		mk &^= mp
	}
	return mv
}

// EqualRows reports whether two rows agree on the first n patterns.
func EqualRows(a, b []uint64, n int) bool {
	w := Words(n)
	for i := 0; i < w-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return (a[w-1]^b[w-1])&TailMask(n) == 0
}

// Equivalent reports whether two circuits with identical PI/PO counts agree
// on the supplied patterns. It is the workhorse behind every "the repaired
// circuit matches the specification" check in the tests.
func Equivalent(a, b *circuit.Circuit, pi [][]uint64, n int) bool {
	va := Simulate(a, pi, n)
	vb := Simulate(b, pi, n)
	oa := Outputs(a, va)
	ob := Outputs(b, vb)
	if len(oa) != len(ob) {
		return false
	}
	m := DiffMask(oa, ob, n)
	for _, x := range m {
		if x != 0 {
			return false
		}
	}
	return true
}

// EquivalentExhaustive checks equivalence over all input combinations; both
// circuits must share the PI count, which must be at most 20 (it panics
// beyond that — use ExhaustivePatterns directly for an error return).
func EquivalentExhaustive(a, b *circuit.Circuit) bool {
	pi, n, err := ExhaustivePatterns(len(a.PIs))
	if err != nil {
		panic("sim: " + err.Error())
	}
	return Equivalent(a, b, pi, n)
}
