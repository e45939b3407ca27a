// The allocation regression gate of the batched arena verify path, at the
// public-API level: once a corpus is warm, a join's verification allocates
// nothing per candidate — the per-worker scratch, the cached arena views, and
// the chunked batching keep the hot loop on pre-owned memory, so total join
// allocations are a small constant regardless of how many pairs the verifier
// decides. internal/engine's TestArenaVerifierZeroAllocs enforces the strict
// zero on the verifier loop itself; this test enforces that nothing between
// the public API and that loop re-introduces per-pair garbage.
package treejoin_test

import (
	"context"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

func TestWarmJoinAllocationGate(t *testing.T) {
	ctx := context.Background()
	ts := synth.Generate(synth.SyntheticParams(48, 4, 8, 16, 56, 17))
	cp := mustCorpus(t, ts)

	// The brute-force source feeds every size-window pair straight to the
	// verifier — the candidate count dwarfs the join's fixed overhead, so a
	// per-pair allocation anywhere on the verify path would blow the budget
	// by an order of magnitude. Sequential workers keep the measurement
	// deterministic (goroutine startup would charge the pool, not the path).
	opts := []treejoin.Option{treejoin.WithMethod(treejoin.MethodBruteForce), treejoin.WithWorkers(1)}
	var st treejoin.Stats
	if _, _, err := cp.SelfJoin(ctx, 4, append(opts, treejoin.WithStats(&st))...); err != nil {
		t.Fatal(err) // also warms the corpus: arenas and signatures
	}
	if st.Candidates < 400 {
		t.Fatalf("fixture too small to gate on: %d candidates", st.Candidates)
	}

	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := cp.SelfJoin(ctx, 4, opts...); err != nil {
			t.Fatal(err)
		}
	})
	// Measured fixed overhead is ~50 allocations (job setup, pipeline,
	// result slice); the budget leaves 3× headroom while staying far below
	// one allocation per candidate (~500 here). If this fails, something on
	// the warm verify path started allocating per pair.
	if budget := 150.0; allocs > budget {
		t.Fatalf("warm join allocated %.0f times for %d candidates (budget %.0f): the verify path is no longer allocation-free",
			allocs, st.Candidates, budget)
	}
}
