package diagnose

import (
	"math/rand"

	"dedc/internal/circuit"
	"dedc/internal/errmodel"
	"dedc/internal/fault"
	"dedc/internal/sim"
)

// StuckAtCorrection adapts a stuck-at fault to the Correction interface:
// in the fault-diagnosis direction, "correcting" the netlist means injecting
// the fault that the device suffers from.
type StuckAtCorrection struct {
	F fault.Fault
}

// Target returns the line whose function changes: the stem itself, or the
// reading gate for a branch fault.
func (s StuckAtCorrection) Target() circuit.Line {
	if s.F.IsStem() {
		return s.F.Line
	}
	return s.F.Reader
}

// NewValues writes the target row under the fault.
func (s StuckAtCorrection) NewValues(e *sim.Engine, dst []uint64) {
	if s.F.IsStem() {
		copy(dst, e.ConstRow(s.F.Value))
		return
	}
	g := &e.C.Gates[s.F.Reader]
	e.EvalCandidatePin(dst, g.Type, g.Fanin, s.F.Pin, e.ConstRow(s.F.Value))
}

// Apply injects the fault into the netlist.
func (s StuckAtCorrection) Apply(c *circuit.Circuit) error {
	fault.InjectInto(c, s.F)
	return nil
}

func (s StuckAtCorrection) String() string { return s.F.String() }

// StuckAtModel enumerates stuck-at corrections: both polarities on the
// candidate stem and on each of its fanout branches.
type StuckAtModel struct{}

// Enumerate implements Model. Corrections are handed out as pointers into
// one slab: boxing each value into the interface separately would make this
// the dominant allocator of the whole screen phase.
func (StuckAtModel) Enumerate(c *circuit.Circuit, l circuit.Line) []Correction {
	t := c.Gates[l].Type
	if t == circuit.Const0 || t == circuit.Const1 {
		return nil
	}
	// The temporary fault list lives on the stack for typical fanout counts.
	var buf [8]fault.Fault
	faults := buf[:0]
	stem := fault.Site{Line: l, Reader: circuit.NoLine}
	faults = append(faults,
		fault.Fault{Site: stem, Value: false},
		fault.Fault{Site: stem, Value: true})
	fo := c.Fanout()
	if len(fo[l]) > 1 {
		for _, r := range fo[l] {
			for p, f := range c.Gates[r].Fanin {
				if f != l {
					continue
				}
				br := fault.Site{Line: l, Reader: r, Pin: p}
				dup := false
				for _, have := range faults {
					if have.Site == br {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				faults = append(faults,
					fault.Fault{Site: br, Value: false},
					fault.Fault{Site: br, Value: true})
			}
		}
	}
	slab := make([]StuckAtCorrection, len(faults))
	out := make([]Correction, len(faults))
	for i, f := range faults {
		slab[i] = StuckAtCorrection{F: f}
		out[i] = &slab[i]
	}
	return out
}

// ErrorModel enumerates design-error-model corrections. Following the paper
// ("the algorithm exhaustively compiles a list of corrections from the
// design error model"), wire-source candidates for missing/wrong-wire
// corrections default to every line in the circuit — the Theorem-1 screen
// disposes of unsuitable sources with one word op each (errmodel.Screen),
// building only the survivors. A sampling cap exists as a performance knob
// for very large netlists.
type ErrorModel struct {
	// WireSources holds the candidate source lines for wire corrections.
	WireSources []circuit.Line
}

// NewErrorModel builds the correction model. maxSources <= 0 keeps every
// line as a wire-source candidate (the exhaustive default); a positive cap
// keeps all PIs plus a seeded sample of internal lines.
func NewErrorModel(c *circuit.Circuit, maxSources int, seed int64) *ErrorModel {
	em := &ErrorModel{}
	if maxSources <= 0 {
		em.WireSources = make([]circuit.Line, c.NumLines())
		for i := range em.WireSources {
			em.WireSources[i] = circuit.Line(i)
		}
		return em
	}
	for _, pi := range c.PIs {
		em.WireSources = append(em.WireSources, pi)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(c.NumLines())
	for _, i := range perm {
		if len(em.WireSources) >= maxSources {
			break
		}
		l := circuit.Line(i)
		t := c.Gates[l].Type
		if t == circuit.Input || t == circuit.Const0 || t == circuit.Const1 {
			continue
		}
		em.WireSources = append(em.WireSources, l)
	}
	if len(em.WireSources) > maxSources {
		em.WireSources = em.WireSources[:maxSources]
	}
	return em
}

// Enumerate implements Model. errmodel.Mod is itself a Correction, so the
// corrections are pointers into the enumerated slice: one allocation per
// Enumerate call instead of one per correction. A search whose model is an
// *ErrorModel does not call it: it walks the candidates with
// errmodel.Screen, which counts each wire candidate's Theorem-1 complement
// with one word op and builds only the survivors, in the same order and
// with the same counts. Inside another Model (a ModelSet) it is called.
func (em *ErrorModel) Enumerate(c *circuit.Circuit, l circuit.Line) []Correction {
	mods := errmodel.Enumerate(c, l, em.WireSources)
	out := make([]Correction, len(mods))
	for i := range mods {
		out[i] = &mods[i]
	}
	return out
}

// CorrectionMod extracts the errmodel.Mod from a Correction produced by an
// ErrorModel, with ok=false for stuck-at corrections.
func CorrectionMod(c Correction) (errmodel.Mod, bool) {
	switch m := c.(type) {
	case errmodel.Mod:
		return m, true
	case *errmodel.Mod:
		return *m, true
	}
	return errmodel.Mod{}, false
}

// CorrectionFault extracts the fault from a stuck-at Correction (boxed by
// value or handed out as a slab pointer by StuckAtModel.Enumerate).
func CorrectionFault(c Correction) (fault.Fault, bool) {
	switch sc := c.(type) {
	case StuckAtCorrection:
		return sc.F, true
	case *StuckAtCorrection:
		return sc.F, true
	}
	return fault.Fault{}, false
}
