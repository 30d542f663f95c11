package tpg

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/gen"
	"dedc/internal/sim"
)

// vectorDigest hashes everything BuildVectors decides: the PI rows (masked
// to N patterns), N and the Generated/Untestable/Aborted counts.
func vectorDigest(res *Result) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(res.N))
	put(uint64(res.Generated))
	put(uint64(res.Untestable))
	put(uint64(res.Aborted))
	w := sim.Words(res.N)
	for _, row := range res.PI {
		for i := 0; i < w; i++ {
			v := row[i]
			if i == w-1 {
				v &= sim.TailMask(res.N)
			}
			put(v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenCircuits are fixed circuits in the shapes the benchmark runs PODEM
// on — the 20-PI/300-gate service designs and the 16-PI/200-gate repair
// netlists — and Table-2 suite rows: c880* itself (one fault aborts at the
// backtrack limit) and small ALU, multiplier and adder/comparator variants
// where a short random set leaves PODEM real work. The digests were
// recorded at commit dffd123, before PODEM's implication became
// event-driven and gained the X-path check; c432* is left out because the
// X-path check proves its four faults that aborted there untestable.
var goldenCircuits = []struct {
	name   string
	build  func() *circuit.Circuit
	random int
	digest string
}{
	{"design1000", func() *circuit.Circuit { return gen.Random(gen.RandomOptions{PIs: 20, Gates: 300, Seed: 1000}) }, 1024, "32b25f837efc5643"},
	{"design1001", func() *circuit.Circuit { return gen.Random(gen.RandomOptions{PIs: 20, Gates: 300, Seed: 1001}) }, 1024, "7b3fed8040224d2b"},
	{"repair1", func() *circuit.Circuit { return gen.Random(gen.RandomOptions{PIs: 16, Gates: 200, Seed: 1}) }, 1024, "34488fd68102cd11"},
	{"repair2", func() *circuit.Circuit { return gen.Random(gen.RandomOptions{PIs: 16, Gates: 200, Seed: 2}) }, 1024, "8be67d877184fb2d"},
	{"repair3", func() *circuit.Circuit { return gen.Random(gen.RandomOptions{PIs: 16, Gates: 200, Seed: 3}) }, 1024, "a15a698151569fc7"},
	{"repair4", func() *circuit.Circuit { return gen.Random(gen.RandomOptions{PIs: 16, Gates: 200, Seed: 4}) }, 1024, "7a204953368d6a57"},
	{"c880*", func() *circuit.Circuit { return gen.Alu(12) }, 2048, "1c8c37caa8c3d106"},
	{"alu4", func() *circuit.Circuit { return gen.Alu(4) }, 64, "e10c982d29a4c44c"},
	{"mult4", func() *circuit.Circuit { return gen.ArrayMultiplier(4) }, 64, "c8186cdd844a8cf8"},
	{"addcmp8", func() *circuit.Circuit { return gen.AdderCmp(8) }, 64, "9f3a94770ac519db"},
}

// TestBuildVectorsGolden freezes the deterministic vector sets: any change
// to PODEM's verdicts or assignments on these circuits changes a digest.
func TestBuildVectorsGolden(t *testing.T) {
	for _, g := range goldenCircuits {
		res := BuildVectors(g.build(), Options{Random: g.random, Seed: 1, Deterministic: true})
		if got := vectorDigest(res); got != g.digest {
			t.Errorf("%s: digest %s, want %s (N=%d generated=%d untestable=%d aborted=%d)",
				g.name, got, g.digest, res.N, res.Generated, res.Untestable, res.Aborted)
		}
	}
}
