package treejoin_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
	"treejoin/internal/tree"
)

var signatureMethods = []treejoin.Method{
	treejoin.MethodSTR, treejoin.MethodSET, treejoin.MethodHistogram,
	treejoin.MethodEulerString, treejoin.MethodPQGram,
}

// indexCorpus returns a synthetic profile corpus big enough to engage the
// token index, with tiny trees mixed in to exercise the light-tree path.
func indexCorpus(gen func(n int, seed int64) []*tree.Tree, n int, seed int64) []*tree.Tree {
	ts := gen(n, seed)
	lt := ts[0].Labels
	for _, s := range []string{"{a}", "{a{b}}", "{a{b}{c{d}}}"} {
		ts = append(ts, tree.MustParseBracket(s, lt))
	}
	return ts
}

// sortedLoop pins the O(n²) sorted nested loop, the token index's oracle.
var sortedLoop = treejoin.WithFixedPlan(treejoin.PlanSpec{Source: treejoin.PlanSourceSortedLoop})

// TestTokenIndexOracleSweep: for every signature method, the default
// token-index candidate generation returns exactly the sorted loop's result
// set — self and cross joins, τ from exact matching up through 8 — and its
// post-filter candidate count never exceeds the loop's, across two synthetic
// profiles (diverse sizes and narrow size bands).
func TestTokenIndexOracleSweep(t *testing.T) {
	profiles := []struct {
		name string
		gen  func(n int, seed int64) []*tree.Tree
	}{
		{"Synthetic", synth.Synthetic},
		{"Treebank", synth.Treebank},
	}
	for _, p := range profiles {
		ts := indexCorpus(p.gen, 60, 41)
		a, b := ts[:25], ts[25:]
		for _, m := range signatureMethods {
			for _, tau := range []int{0, 1, 2, 4, 8} {
				label := fmt.Sprintf("%s/%v/τ=%d", p.name, m, tau)
				var ist, lst treejoin.Stats
				got, ist := treejoin.SelfJoin(ts, tau, treejoin.WithMethod(m))
				want, lst := treejoin.SelfJoin(ts, tau, treejoin.WithMethod(m), sortedLoop)
				samePairs(t, "self/"+label, got, want)
				if ist.Candidates > lst.Candidates {
					t.Fatalf("self/%s: index candidates %d > loop %d", label, ist.Candidates, lst.Candidates)
				}
				if lst.Source != "sorted-loop" {
					t.Fatalf("%s: sorted-loop plan ran source %q", label, lst.Source)
				}
				got, ist = treejoin.Join(a, b, tau, treejoin.WithMethod(m))
				want, lst = treejoin.Join(a, b, tau, treejoin.WithMethod(m), sortedLoop)
				samePairs(t, "cross/"+label, got, want)
				if ist.Candidates > lst.Candidates {
					t.Fatalf("cross/%s: index candidates %d > loop %d", label, ist.Candidates, lst.Candidates)
				}
			}
		}
	}
}

// TestTokenIndexAutoFallback: corpora below the cutoff — and thresholds at
// the largest tree's size — must run the sorted loop automatically, and a
// regular workload the token index, all visible in Stats.Source.
func TestTokenIndexAutoFallback(t *testing.T) {
	small := synth.Synthetic(20, 9)
	_, st := treejoin.SelfJoin(small, 1, treejoin.WithMethod(treejoin.MethodSTR))
	if st.Source != "sorted-loop" {
		t.Fatalf("small corpus: source = %q, want sorted-loop", st.Source)
	}

	big := synth.Synthetic(80, 9)
	maxSize := 0
	for _, tr := range big {
		if tr.Size() > maxSize {
			maxSize = tr.Size()
		}
	}
	_, st = treejoin.SelfJoin(big, maxSize, treejoin.WithMethod(treejoin.MethodHistogram))
	if st.Source != "sorted-loop" {
		t.Fatalf("τ=max size: source = %q, want sorted-loop", st.Source)
	}

	// Bag-swallowing threshold: labels have C = 2 and bag = tree size, so at
	// τ = ⌈maxSize/2⌉ even the largest bag is light and the index would
	// degenerate to the light-list scan — must fall back.
	_, st = treejoin.SelfJoin(big, (maxSize+1)/2, treejoin.WithMethod(treejoin.MethodHistogram))
	if st.Source != "sorted-loop" {
		t.Fatalf("bag-swallowing τ: source = %q, want sorted-loop", st.Source)
	}

	_, st = treejoin.SelfJoin(big, 2, treejoin.WithMethod(treejoin.MethodPQGram))
	if !strings.HasPrefix(st.Source, "token-index(") {
		t.Fatalf("regular corpus: source = %q, want token-index(...)", st.Source)
	}

	// PartSJ and BruteForce never use the token index.
	_, st = treejoin.SelfJoin(big, 1)
	if st.Source != "partsj" {
		t.Fatalf("PartSJ source = %q", st.Source)
	}
	_, st = treejoin.SelfJoin(big, 1, treejoin.WithMethod(treejoin.MethodBruteForce))
	if st.Source != "sorted-loop" {
		t.Fatalf("BruteForce source = %q", st.Source)
	}
}

// TestTokenIndexWarmCorpus: a corpus-backed join tokenises each tree exactly
// once — a second join at a different threshold reuses every cached token
// bag (misses frozen, hits growing), the warm-reuse contract the index
// benchmarks rely on.
func TestTokenIndexWarmCorpus(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(64, 13)
	for _, m := range signatureMethods {
		cp := mustCorpus(t, ts)
		_, st, err := cp.SelfJoin(ctx, 1, treejoin.WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(st.Source, "token-index(") {
			t.Fatalf("%v: cold join ran %q, not the token index", m, st.Source)
		}
		cold := cp.CacheStats()
		if cold.Misses == 0 {
			t.Fatalf("%v: cold join recorded no cache misses", m)
		}
		if _, _, err := cp.SelfJoin(ctx, 3, treejoin.WithMethod(m)); err != nil {
			t.Fatal(err)
		}
		warm := cp.CacheStats()
		if warm.Misses != cold.Misses {
			t.Errorf("%v: warm join at a new τ recomputed %d artifacts (token bags must be τ-independent)",
				m, warm.Misses-cold.Misses)
		}
		if warm.Hits <= cold.Hits {
			t.Errorf("%v: warm join did not hit the cache (hits %d -> %d)", m, cold.Hits, warm.Hits)
		}
	}
}

// TestCandWall: the candidate stage records a positive wall clock alongside
// the summed task clocks, for both loop and index sources.
func TestCandWall(t *testing.T) {
	ts := synth.Synthetic(64, 21)
	for _, opts := range [][]treejoin.Option{
		{treejoin.WithMethod(treejoin.MethodSTR)},
		{treejoin.WithMethod(treejoin.MethodSTR), sortedLoop, treejoin.WithWorkers(4)},
	} {
		_, st := treejoin.SelfJoin(ts, 2, opts...)
		if st.CandWall <= 0 {
			t.Fatalf("CandWall = %v (stats %+v)", st.CandWall, st)
		}
	}
}
