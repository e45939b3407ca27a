package treejoin_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

// TestVerifierMatchesExactOracle: the τ-banded verifier's result sets equal
// an exhaustive scan with the unbounded Zhang–Shasha distance across methods
// and thresholds, and the banded run records its pruning counters.
func TestVerifierMatchesExactOracle(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(50, 23)
	cp := mustCorpus(t, ts)
	dist := make(map[[2]int]int)
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			dist[[2]int{i, j}] = treejoin.Distance(ts[i], ts[j])
		}
	}
	for _, tau := range []int{0, 1, 3, 6} {
		var want []treejoin.Pair
		for i := range ts {
			for j := i + 1; j < len(ts); j++ {
				if d := dist[[2]int{i, j}]; d <= tau {
					want = append(want, treejoin.Pair{I: i, J: j, Dist: d})
				}
			}
		}
		for _, m := range []treejoin.Method{
			treejoin.MethodPartSJ, treejoin.MethodBruteForce, treejoin.MethodHistogram,
		} {
			got, st, err := cp.SelfJoin(ctx, tau, treejoin.WithMethod(m))
			if err != nil {
				t.Fatal(err)
			}
			samePairs(t, fmt.Sprintf("%v τ=%d vs exact oracle", m, tau), got, want)
			if m == treejoin.MethodBruteForce && tau <= 1 &&
				st.DPAvoided == 0 && st.KeyrootsSkipped == 0 && st.BandAborts == 0 {
				t.Fatalf("%v τ=%d: banded run recorded no verifier pruning (candidates=%d)",
					m, tau, st.Candidates)
			}
		}
	}
}

// TestConcurrentVerifyAcrossTwoCorpora hammers the verifier's pooled scratch
// buffers and shared cached arena views from many concurrent verify workers
// across two corpora — parallel self joins on each side and cross joins
// between them, all racing — and asserts every result identical to the
// serial run. Under -race this is the detector test for the scratch pool,
// the shared arena views, and the routed cross-join cache.
func TestConcurrentVerifyAcrossTwoCorpora(t *testing.T) {
	ctx := context.Background()
	ts := synth.Sentiment(85, 3) // one generation → one shared label table
	as, bs := ts[:45], ts[45:]
	cpA := mustCorpus(t, as)
	cpB := mustCorpus(t, bs)
	const tau = 2

	selfA, _, err := cpA.SelfJoin(ctx, tau)
	if err != nil {
		t.Fatal(err)
	}
	selfB, _, err := cpB.SelfJoin(ctx, tau)
	if err != nil {
		t.Fatal(err)
	}
	cross, _, err := cpA.Join(ctx, cpB, tau)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				switch (w + round) % 3 {
				case 0:
					got, _, err := cpA.SelfJoin(ctx, tau, treejoin.WithWorkers(4))
					if err != nil {
						fail(err)
						return
					}
					samePairs(t, "concurrent selfA", got, selfA)
				case 1:
					got, _, err := cpB.SelfJoin(ctx, tau, treejoin.WithWorkers(4), treejoin.WithMethod(treejoin.MethodHistogram))
					if err != nil {
						fail(err)
						return
					}
					samePairs(t, "concurrent selfB", got, selfB)
				case 2:
					got, _, err := cpA.Join(ctx, cpB, tau, treejoin.WithWorkers(4))
					if err != nil {
						fail(err)
						return
					}
					samePairs(t, "concurrent cross", got, cross)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
