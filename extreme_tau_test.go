// Extreme thresholds: τ far past any possible distance must answer exactly
// what τ = the sum of the two largest tree sizes answers (every pair), fast,
// and without panicking — 2τ+1, size windows and q-gram bounds must neither
// overflow nor size work by τ.
package treejoin_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"treejoin"
	"treejoin/internal/synth"
)

var extremeTaus = []int{1 << 40, math.MaxInt32 + 1, math.MaxInt64}

// extremeBound is the time each extreme-τ query gets; a brute-force answer
// over these collections takes milliseconds.
const extremeBound = 10 * time.Second

func extremeCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), extremeBound)
	t.Cleanup(cancel)
	return ctx
}

// allPairs is the brute-force answer at any τ ≥ every distance: each pair
// of a and b (each unordered pair of a when b is nil) with its exact TED.
func allPairs(a, b []*treejoin.Tree) []treejoin.Pair {
	var out []treejoin.Pair
	for i := range a {
		if b == nil {
			for j := i + 1; j < len(a); j++ {
				out = append(out, treejoin.Pair{I: i, J: j, Dist: treejoin.Distance(a[i], a[j])})
			}
			continue
		}
		for j := range b {
			out = append(out, treejoin.Pair{I: i, J: j, Dist: treejoin.Distance(a[i], b[j])})
		}
	}
	return out
}

func TestExtremeThresholds(t *testing.T) {
	ts := synth.Synthetic(36, 29)
	left, right := ts[:24], ts[24:]
	wantSelf := allPairs(left, nil)
	wantCross := allPairs(left, right)
	cp := mustCorpus(t, left)
	other := mustCorpus(t, right)
	for _, tau := range extremeTaus {
		for _, m := range allMethods {
			label := fmt.Sprintf("tau=%d method=%v", tau, m)
			start := time.Now()
			got, _, err := cp.SelfJoin(extremeCtx(t), tau, treejoin.WithMethod(m))
			if err != nil {
				t.Fatalf("%s: SelfJoin: %v (after %v)", label, err, time.Since(start))
			}
			pairsEqual(t, label+" SelfJoin", got, wantSelf)
			got, _, err = cp.Join(extremeCtx(t), other, tau, treejoin.WithMethod(m))
			if err != nil {
				t.Fatalf("%s: Join: %v", label, err)
			}
			pairsEqual(t, label+" Join", got, wantCross)
		}

		for _, q := range right[:3] {
			want := make([]treejoin.Match, len(left))
			for i, c := range left {
				want[i] = treejoin.Match{Pos: i, Dist: treejoin.Distance(c, q)}
			}
			got, err := cp.Search(extremeCtx(t), q, tau)
			if err != nil {
				t.Fatalf("tau=%d: Search: %v", tau, err)
			}
			matchesEqual(t, fmt.Sprintf("tau=%d Search", tau), got, want)
		}

		inc, err := cp.Incremental(tau)
		if err != nil {
			t.Fatalf("tau=%d: Incremental: %v", tau, err)
		}
		start := time.Now()
		for _, tr := range left {
			inc.Add(tr)
		}
		if d := time.Since(start); d > extremeBound {
			t.Fatalf("tau=%d: Incremental took %v", tau, d)
		}
		pairsEqual(t, fmt.Sprintf("tau=%d Incremental", tau), inc.Pairs(), wantSelf)
	}
}

func pairsEqual(t *testing.T, label string, got, want []treejoin.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func matchesEqual(t *testing.T, label string, got, want []treejoin.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}
