package core_test

import (
	"testing"

	"treejoin/internal/baseline"
	"treejoin/internal/core"
	"treejoin/internal/synth"
	"treejoin/internal/tree"
)

// TestAliasedTrees: the same *Tree object appearing at several collection
// positions must behave like equal trees (per-tree artifacts are cached by
// pointer, so aliasing is the adversarial case).
func TestAliasedTrees(t *testing.T) {
	lt := tree.NewLabelTable()
	shared := tree.MustParseBracket("{a{b{c}{d}}{e{f}}}", lt)
	other := tree.MustParseBracket("{a{b{c}{d}}{e{g}}}", lt)
	ts := []*tree.Tree{shared, other, shared, shared}
	for _, opts := range []core.Options{
		{Tau: 0},
		{Tau: 1},
		{Tau: 1, Workers: 3},
	} {
		got, _ := core.SelfJoin(ts, opts)
		want, _ := baseline.BruteForce(ts, baseline.Options{Tau: opts.Tau})
		if len(got) != len(want) {
			t.Fatalf("τ=%d: %v, oracle %v", opts.Tau, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("τ=%d: %v, oracle %v", opts.Tau, got, want)
			}
		}
	}
}

// TestLargeTauSmallTrees: thresholds larger than every tree force the whole
// collection through the small-tree path; results must still match.
func TestLargeTauSmallTrees(t *testing.T) {
	ts := synth.Generate(synth.Params{
		N: 25, AvgSize: 6, SizeJitter: 0.5, MaxFanout: 3, MaxDepth: 4,
		Labels: 3, DepthBias: 0, Cluster: 1, Decay: 0, Seed: 31})
	for _, tau := range []int{6, 10, 25} {
		got, st := core.SelfJoin(ts, core.Options{Tau: tau})
		want, _ := baseline.BruteForce(ts, baseline.Options{Tau: tau})
		if len(got) != len(want) {
			t.Fatalf("τ=%d: %d pairs, oracle %d", tau, len(got), len(want))
		}
		if st.IndexedSubgraphs != 0 && tau >= 25 {
			// With δ = 51 > every tree size nothing should be indexed.
			t.Fatalf("indexed %d subgraphs with δ > max size", st.IndexedSubgraphs)
		}
	}
}

// TestSingleLabelCollection: one label everywhere removes all label-layer
// selectivity; the join must still be correct (position layer and matching
// carry the filtering).
func TestSingleLabelCollection(t *testing.T) {
	ts := synth.Generate(synth.Params{
		N: 40, AvgSize: 18, SizeJitter: 0.4, MaxFanout: 4, MaxDepth: 8,
		Labels: 1, DepthBias: 0, Cluster: 2, Decay: 0.08, Seed: 37})
	for tau := 0; tau <= 3; tau++ {
		got, _ := core.SelfJoin(ts, core.Options{Tau: tau})
		want, _ := baseline.BruteForce(ts, baseline.Options{Tau: tau})
		if len(got) != len(want) {
			t.Fatalf("τ=%d: %d pairs, oracle %d", tau, len(got), len(want))
		}
	}
}

// TestIdenticalForest: many copies of one tree — quadratic result set, every
// pair at distance zero, exercising dedup under extreme fan-in.
func TestIdenticalForest(t *testing.T) {
	lt := tree.NewLabelTable()
	base := tree.MustParseBracket("{a{b{c}}{d{e}{f}}}", lt)
	ts := make([]*tree.Tree, 24)
	for i := range ts {
		ts[i] = base.Clone()
	}
	pairs, _ := core.SelfJoin(ts, core.Options{Tau: 2})
	want := len(ts) * (len(ts) - 1) / 2
	if len(pairs) != want {
		t.Fatalf("%d pairs, want %d", len(pairs), want)
	}
	for _, p := range pairs {
		if p.Dist != 0 {
			t.Fatalf("nonzero distance between identical trees: %v", p)
		}
	}
}

// TestVerifierFailureInjection: a verifier that rejects everything yields no
// results but full candidate accounting; one that accepts everything yields
// exactly the candidate set (join plumbing does not second-guess the
// verifier).
func TestVerifierFailureInjection(t *testing.T) {
	ts := synth.Synthetic(40, 41)
	rejectAll := func(a, b *tree.Tree, tau int) (int, bool) { return tau + 1, false }
	pairs, st := core.SelfJoin(ts, core.Options{Tau: 2, Verifier: rejectAll})
	if len(pairs) != 0 {
		t.Fatalf("reject-all verifier produced %d pairs", len(pairs))
	}
	if st.Candidates == 0 {
		t.Fatal("no candidates reached the verifier")
	}
	acceptAll := func(a, b *tree.Tree, tau int) (int, bool) { return 0, true }
	pairs, st = core.SelfJoin(ts, core.Options{Tau: 2, Verifier: acceptAll})
	if int64(len(pairs)) != st.Candidates {
		t.Fatalf("accept-all: %d pairs vs %d candidates", len(pairs), st.Candidates)
	}
}
