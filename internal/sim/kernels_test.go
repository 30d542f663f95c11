package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// PermutePatterns returns copies of the packed rows with the patterns
// reordered, one bit at a time: output pattern j carries input pattern
// perm[j]. perm may select a subset of the n patterns, in which case the
// result holds len(perm) patterns in Words(len(perm)) words per row. It is
// the reference ReversePatterns and GatherMask replaced.
func PermutePatterns(rows [][]uint64, n int, perm []int) [][]uint64 {
	w := Words(len(perm))
	out := make([][]uint64, len(rows))
	storage := make([]uint64, len(rows)*w)
	for i, row := range rows {
		dst := storage[i*w : (i+1)*w : (i+1)*w]
		for j, p := range perm {
			bit := (row[p>>6] >> (uint(p) & 63)) & 1
			dst[j>>6] |= bit << (uint(j) & 63)
		}
		out[i] = dst
	}
	return out
}

// ReversedPerm returns the permutation n-1, n-2, …, 0.
func ReversedPerm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = n - 1 - i
	}
	return perm
}

// maskPerm lists the set bits of mask in ascending order.
func maskPerm(mask []uint64) []int {
	var idx []int
	for w, x := range mask {
		for ; x != 0; x &= x - 1 {
			idx = append(idx, w<<6|bits.TrailingZeros64(x))
		}
	}
	return idx
}

// randomMask returns a tail-masked n-pattern mask whose words are drawn at
// the given density, with word z (when in range) forced all zero and word
// f all ones.
func randomMask(rng *rand.Rand, n int, density float64, z, f int) []uint64 {
	mask := make([]uint64, Words(n))
	for k := range mask {
		switch k {
		case z:
		case f:
			mask[k] = ^uint64(0)
		default:
			for b := 0; b < 64; b++ {
				if rng.Float64() < density {
					mask[k] |= 1 << b
				}
			}
		}
	}
	mask[len(mask)-1] &= TailMask(n)
	return mask
}

func TestReversePatternsMatchesPermute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 1100; n++ {
		// Random rows: the bits beyond n are garbage the reversal must drop.
		rows := RandomPatterns(3, n, rng.Int63())
		got, want := ReversePatterns(rows, n), PermutePatterns(rows, n, ReversedPerm(n))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: ReversePatterns differs from the bit-serial reversal\n got %x\nwant %x", n, got, want)
		}
	}
	if got := ReversePatterns([][]uint64{{}}, 0); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("n=0: got %v, want one empty row", got)
	}
}

func TestGatherMaskMatchesPermute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 1100; n++ {
		rows := RandomPatterns(3, n, rng.Int63())
		for _, density := range []float64{0, 0.02, 0.3, 0.5, 0.9, 1} {
			w := Words(n)
			mask := randomMask(rng, n, density, rng.Intn(w+1), rng.Intn(w+1))
			got, want := GatherMask(rows, mask), PermutePatterns(rows, n, maskPerm(mask))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d density=%v mask=%x: GatherMask differs from the bit-serial gather\n got %x\nwant %x",
					n, density, mask, got, want)
			}
		}
	}
}

// BenchmarkVectorKernels times the verify gate's reversal and the
// failing-vector gather on the shapes the diagnosis engine feeds them: 40
// rows (PIs, spec and diff rows of a c880-sized node) of 1024 patterns, the
// gather at several failing-vector densities. The bit-serial references
// run alongside for comparison.
func BenchmarkVectorKernels(b *testing.B) {
	const n = 1024
	rows := RandomPatterns(40, n, 1)
	b.Run("reverse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ReversePatterns(rows, n)
		}
	})
	b.Run("reverse/serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			PermutePatterns(rows, n, ReversedPerm(n))
		}
	})
	for _, density := range []float64{0.05, 0.5} {
		mask := randomMask(rand.New(rand.NewSource(3)), n, density, -1, -1)
		b.Run(fmt.Sprintf("gather/d%.2f", density), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GatherMask(rows, mask)
			}
		})
		b.Run(fmt.Sprintf("gather/d%.2f/serial", density), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PermutePatterns(rows, n, maskPerm(mask))
			}
		})
	}
}

// BenchmarkExhaustivePatterns times the word-level pattern rows at the PI
// counts the exhaustive equivalence check runs at, with the per-bit
// reference alongside.
func BenchmarkExhaustivePatterns(b *testing.B) {
	for _, nPI := range []int{8, 14, 16} {
		b.Run(fmt.Sprintf("pi%d", nPI), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ExhaustivePatterns(nPI)
			}
		})
		b.Run(fmt.Sprintf("pi%d/serial", nPI), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				exhaustivePatternsSerial(nPI)
			}
		})
	}
}
