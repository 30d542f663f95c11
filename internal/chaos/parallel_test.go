package chaos

import (
	"context"
	"testing"

	"dedc/internal/diagnose"
)

// TestParallelCompleteMatchesSequentialUnderChaosSeeds re-checks determinism
// on the chaos problem corpus: for every seed a Workers=8 run's tuples and
// deterministic stats must equal the sequential run's.
func TestParallelCompleteMatchesSequentialUnderChaosSeeds(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		devOut, pi, n, c := makeProblem(t, seed)
		var want *diagnose.StuckAtResult
		for _, workers := range []int{1, 8} {
			res, err := diagnose.DiagnoseStuckAtContext(context.Background(), c, devOut, pi, n,
				diagnose.Options{MaxErrors: 2, Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers=%d: %v", seed, workers, err)
			}
			if workers == 1 {
				want = res
				continue
			}
			if gk, wk := tupleKeys(res), tupleKeys(want); len(gk) != len(wk) {
				t.Fatalf("seed %d: tuple counts differ: %v vs %v", seed, gk, wk)
			} else {
				for i := range gk {
					if gk[i] != wk[i] {
						t.Fatalf("seed %d: tuples diverge: %v vs %v", seed, gk, wk)
					}
				}
			}
			if res.Stats.Deterministic() != want.Stats.Deterministic() {
				t.Fatalf("seed %d: stats diverge\ngot:  %+v\nwant: %+v",
					seed, res.Stats.Deterministic(), want.Stats.Deterministic())
			}
		}
	}
}
