// Package fault implements the single and multiple stuck-at fault model:
// fault sites on stems and fanout branches, structural fault injection (used
// to create the "faulty device" of the experiments), parallel-pattern fault
// simulation with fault dropping, and classical structural equivalence
// collapsing.
package fault

import (
	"fmt"
	"sort"

	"dedc/internal/circuit"
	"dedc/internal/sim"
)

// Site identifies a stuck-at fault location. A stem site is the output net
// of a gate (Reader == circuit.NoLine). A branch site is one pin of a reader
// gate; branch sites exist only where the driving stem has fanout > 1 —
// with a single reader, the branch and the stem are the same electrical
// node.
type Site struct {
	Line   circuit.Line // driven stem line
	Reader circuit.Line // reading gate for a branch site, NoLine for a stem
	Pin    int          // pin index within the reader, 0 for a stem
}

// IsStem reports whether the site is a stem.
func (s Site) IsStem() bool { return s.Reader == circuit.NoLine }

// String renders the site for reports, e.g. "n12" or "n12->n30.1".
func (s Site) String() string {
	if s.IsStem() {
		return fmt.Sprintf("L%d", int(s.Line))
	}
	return fmt.Sprintf("L%d->L%d.%d", int(s.Line), int(s.Reader), s.Pin)
}

// Name renders the site using circuit signal names.
func (s Site) Name(c *circuit.Circuit) string {
	if s.IsStem() {
		return c.Name(s.Line)
	}
	return fmt.Sprintf("%s->%s.%d", c.Name(s.Line), c.Name(s.Reader), s.Pin)
}

// Fault is a stuck-at fault at a site.
type Fault struct {
	Site
	Value bool // stuck-at value: false = s-a-0, true = s-a-1
}

// String renders the fault, e.g. "L12/0".
func (f Fault) String() string {
	v := 0
	if f.Value {
		v = 1
	}
	return fmt.Sprintf("%s/%d", f.Site.String(), v)
}

// Sites enumerates every fault site of the circuit: one stem per gate
// (primary inputs included, constants excluded) plus one branch per pin
// wherever the driving stem feeds more than one pin.
func Sites(c *circuit.Circuit) []Site {
	fo := c.Fanout()
	var sites []Site
	for l := 0; l < c.NumLines(); l++ {
		t := c.Gates[l].Type
		if t == circuit.Const0 || t == circuit.Const1 {
			continue
		}
		sites = append(sites, Site{Line: circuit.Line(l), Reader: circuit.NoLine})
	}
	for i := range c.Gates {
		for p, f := range c.Gates[i].Fanin {
			if len(fo[f]) > 1 {
				sites = append(sites, Site{Line: f, Reader: circuit.Line(i), Pin: p})
			}
		}
	}
	return sites
}

// AllFaults enumerates both polarities on every site.
func AllFaults(c *circuit.Circuit) []Fault {
	sites := Sites(c)
	faults := make([]Fault, 0, 2*len(sites))
	for _, s := range sites {
		faults = append(faults, Fault{Site: s, Value: false}, Fault{Site: s, Value: true})
	}
	return faults
}

// Inject returns a copy of c with the faults inserted structurally: a stem
// fault replaces the driving gate with a constant; a branch fault re-points
// the affected pin at a fresh constant gate. The copy simulates exactly as
// the faulty device would.
func Inject(c *circuit.Circuit, faults ...Fault) *circuit.Circuit {
	nc := c.Clone()
	InjectInto(nc, faults...)
	return nc
}

// InjectInto inserts the faults into c itself (the mutating form used when a
// fault plays the role of a correction during incremental rectification).
func InjectInto(c *circuit.Circuit, faults ...Fault) {
	nc := c
	constType := func(v bool) circuit.GateType {
		if v {
			return circuit.Const1
		}
		return circuit.Const0
	}
	for _, f := range faults {
		if f.IsStem() {
			// The faulted gate stays intact (so PI positions survive and
			// later branch faults on its pins remain injectable); its
			// readers and PO slots are re-pointed at a fresh constant.
			k := nc.AddGate(constType(f.Value))
			redirectReaders(nc, f.Line, k)
		} else {
			k := nc.AddGate(constType(f.Value))
			nc.SetFanin(f.Reader, f.Pin, k)
		}
	}
}

// redirectReaders re-points every pin reading old to new, and replaces old
// in the PO list as well.
func redirectReaders(c *circuit.Circuit, old, new circuit.Line) {
	for i := range c.Gates {
		if circuit.Line(i) == new {
			continue
		}
		for p, f := range c.Gates[i].Fanin {
			if f == old {
				c.SetFanin(circuit.Line(i), p, new)
			}
		}
	}
	for i, po := range c.POs {
		if po == old {
			c.POs[i] = new
		}
	}
}

// Detected runs parallel-pattern fault simulation: for every fault, it
// reports whether any primary output differs from the fault-free response on
// at least one of the n patterns. Event-driven trials keep the cost
// proportional to each fault's sensitized cone.
func Detected(c *circuit.Circuit, faults []Fault, pi [][]uint64, n int) []bool {
	return DetectedOn(sim.NewEngine(c, pi, n), faults)
}

// DetectedOn is Detected over an engine the caller already built, so the
// caller can read the fault-free simulation (Engine.BaseVal) afterwards
// without simulating the circuit again. Trials leave the base untouched.
func DetectedOn(e *sim.Engine, faults []Fault) []bool {
	c, n := e.C, e.N
	isPO := poSet(c)
	det := make([]bool, len(faults))
	w := sim.Words(n)
	zero := make([]uint64, w)
	ones := make([]uint64, w)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	tail := sim.TailMask(n)
	for i, f := range faults {
		row := zero
		if f.Value {
			row = ones
		}
		var changed []circuit.Line
		if f.IsStem() {
			changed = e.Trial(f.Line, row)
		} else {
			g := &c.Gates[f.Reader]
			changed = e.TrialEvalPin(f.Reader, g.Type, g.Fanin, f.Pin, row)
		}
		for _, l := range changed {
			if !isPO[l] {
				continue
			}
			// The engine reports word-granular changes; a real detection
			// needs a differing bit within the first n patterns.
			tv, base := e.TrialVal(l), e.BaseVal(l)
			for j := 0; j < w; j++ {
				d := tv[j] ^ base[j]
				if j == w-1 {
					d &= tail
				}
				if d != 0 {
					det[i] = true
					break
				}
			}
			if det[i] {
				break
			}
		}
	}
	return det
}

// Coverage returns the detected fraction.
func Coverage(det []bool) float64 {
	if len(det) == 0 {
		return 0
	}
	n := 0
	for _, d := range det {
		if d {
			n++
		}
	}
	return float64(n) / float64(len(det))
}

func poSet(c *circuit.Circuit) map[circuit.Line]bool {
	m := make(map[circuit.Line]bool, len(c.POs))
	for _, po := range c.POs {
		m[po] = true
	}
	return m
}

// Tuple is a set of faults proposed to jointly explain a faulty behaviour.
// Tuples are kept sorted by (line, reader, pin, value) so that equal sets
// compare equal.
type Tuple []Fault

// Canon sorts the tuple into canonical order and returns it.
func (t Tuple) Canon() Tuple {
	sort.Slice(t, func(i, j int) bool {
		a, b := t[i], t[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Reader != b.Reader {
			return a.Reader < b.Reader
		}
		if a.Pin != b.Pin {
			return a.Pin < b.Pin
		}
		return !a.Value && b.Value
	})
	return t
}

// Key returns a canonical string key for set-level deduplication.
func (t Tuple) Key() string {
	t = t.Canon()
	s := ""
	for _, f := range t {
		s += f.String() + ";"
	}
	return s
}

// String renders the tuple.
func (t Tuple) String() string {
	s := "{"
	for i, f := range t {
		if i > 0 {
			s += ", "
		}
		s += f.String()
	}
	return s + "}"
}

// DistinctSites returns the number of distinct fault sites across tuples —
// the "# sites" column of Table 1: the lines a test engineer must probe.
func DistinctSites(tuples []Tuple) int {
	seen := map[Site]bool{}
	for _, t := range tuples {
		for _, f := range t {
			seen[f.Site] = true
		}
	}
	return len(seen)
}
