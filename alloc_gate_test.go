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

// TestWarmKNNAllocationGate: a warm in-cluster Corpus.KNN allocates the same
// number of times over 500 trees as over 2000 — the per-query bound and
// order buffers come from a pool and the label histograms are built once per
// searcher, so nothing on the query path is sized by the collection.
// Sequential workers keep the count deterministic. Under the race detector
// the pools refill at random, so the counts may differ by the few
// allocations of a refill — still far below one per tree.
func TestWarmKNNAllocationGate(t *testing.T) {
	ctx := context.Background()
	allocs := func(n int) float64 {
		ts := synth.Synthetic(n, 1)
		cp := mustCorpus(t, ts)
		q := ts[0]
		ms, err := cp.KNN(ctx, q, 3, treejoin.WithWorkers(1))
		if err != nil || len(ms) != 3 || ms[0].Dist != 0 {
			t.Fatalf("n=%d: warm-up KNN %v, %v", n, ms, err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := cp.KNN(ctx, q, 3, treejoin.WithWorkers(1)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(500), allocs(2000)
	slack := 0.0
	if raceEnabled {
		slack = 10
	}
	if large > small+slack || small > large+slack {
		t.Fatalf("warm KNN allocated %.0f times over 500 trees but %.0f over 2000: the query path allocates per tree", small, large)
	}
	t.Logf("warm in-cluster KNN: %.0f allocations", small)
}
