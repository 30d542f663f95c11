package diagnose

import (
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/errmodel"
	"dedc/internal/fault"
	"dedc/internal/gen"
)

func TestCorrectionModExtraction(t *testing.T) {
	c := gen.Alu(4)
	model := NewErrorModel(c, 0, 1)
	corrs := model.Enumerate(c, circuit.Line(40))
	if len(corrs) == 0 {
		t.Fatal("no corrections")
	}
	m, ok := CorrectionMod(corrs[0])
	if !ok {
		t.Fatal("CorrectionMod failed on an error-model correction")
	}
	if m.Target() != corrs[0].Target() {
		t.Fatal("extracted mod targets wrong line")
	}
	if _, ok := CorrectionFault(corrs[0]); ok {
		t.Fatal("error-model correction extracted as fault")
	}
	sc := StuckAtCorrection{F: fault.Fault{Site: fault.Site{Line: 3, Reader: circuit.NoLine}, Value: true}}
	if _, ok := CorrectionMod(sc); ok {
		t.Fatal("stuck-at correction extracted as mod")
	}
	f, ok := CorrectionFault(sc)
	if !ok || f != sc.F {
		t.Fatal("CorrectionFault failed")
	}
}

func TestNewErrorModelSampledSources(t *testing.T) {
	c := gen.Alu(8)
	em := NewErrorModel(c, 32, 7)
	if len(em.WireSources) != 32 {
		t.Fatalf("sampled %d sources, want 32", len(em.WireSources))
	}
	// All PIs included first when the cap allows.
	piSet := map[circuit.Line]bool{}
	for _, pi := range c.PIs {
		piSet[pi] = true
	}
	nPIs := 0
	for _, s := range em.WireSources {
		if piSet[s] {
			nPIs++
		}
	}
	if nPIs != len(c.PIs) {
		t.Fatalf("only %d of %d PIs among sampled sources", nPIs, len(c.PIs))
	}
	// Tiny cap smaller than the PI count truncates.
	small := NewErrorModel(c, 4, 7)
	if len(small.WireSources) != 4 {
		t.Fatalf("cap not honored: %d", len(small.WireSources))
	}
	// Exhaustive default covers every line.
	full := NewErrorModel(c, 0, 7)
	if len(full.WireSources) != c.NumLines() {
		t.Fatalf("exhaustive default has %d sources, want %d", len(full.WireSources), c.NumLines())
	}
}

// TestModCorrectionStringMatchesMod: the corrections ErrorModel hands out
// print exactly as the errmodel.Mod values they are, in enumeration order,
// so correction keys, digests and checkpoints carry the mod strings.
func TestModCorrectionStringMatchesMod(t *testing.T) {
	c := gen.Alu(4)
	em := NewErrorModel(c, 0, 7)
	for l := circuit.Line(0); int(l) < c.NumLines(); l++ {
		mods := errmodel.Enumerate(c, l, em.WireSources)
		corrs := em.Enumerate(c, l)
		if len(corrs) != len(mods) {
			t.Fatalf("L%d: %d corrections for %d mods", l, len(corrs), len(mods))
		}
		for i, corr := range corrs {
			if corr.String() != mods[i].String() {
				t.Fatalf("L%d #%d: correction %q, mod %q", l, i, corr, mods[i])
			}
		}
	}
}

func TestTimeBudgetStopsSearch(t *testing.T) {
	// An unsolvable reference with a tiny time budget must return quickly.
	c := gen.Alu(6)
	n := 512
	pi := make([][]uint64, len(c.PIs))
	for i := range pi {
		pi[i] = make([]uint64, 8)
		for j := range pi[i] {
			pi[i][j] = 0xAAAA5555AAAA5555
		}
	}
	// Impossible reference: random noise outputs.
	ref := make([][]uint64, len(c.POs))
	for i := range ref {
		ref[i] = make([]uint64, 8)
		for j := range ref[i] {
			ref[i][j] = uint64(i)*0x9E3779B97F4A7C15 + uint64(j)
		}
	}
	res := Run(c, ref, pi, n, StuckAtModel{}, Options{MaxErrors: 3, Budget: Budget{Time: 50e6 /* 50ms */}})
	if len(res.Solutions) != 0 {
		t.Fatal("solved the unsolvable")
	}
	// The budget keeps node counts modest; without it this search would
	// burn the full MaxNodes on every schedule step.
	if res.Stats.Nodes > 3000 {
		t.Fatalf("time budget ignored: %d nodes expanded", res.Stats.Nodes)
	}
}
