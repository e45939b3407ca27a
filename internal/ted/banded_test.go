package ted

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"treejoin/internal/tree"
)

// randTree builds a random tree of at most maxN nodes over a small alphabet.
func randTree(rng *rand.Rand, maxN, alphabet int, lt *tree.LabelTable) *tree.Tree {
	n := 1 + rng.Intn(maxN)
	b := tree.NewBuilder(lt)
	lab := func() string { return string(rune('a' + rng.Intn(alphabet))) }
	b.Root(lab())
	for i := 1; i < n; i++ {
		b.Child(int32(rng.Intn(i)), lab())
	}
	return b.MustBuild()
}

// mutate applies k random node insertions/relabelings to t, producing a tree
// at TED ≤ k — the banded verifier's sweet spot (near-duplicates).
func mutate(rng *rand.Rand, t *tree.Tree, k, alphabet int, lt *tree.LabelTable) *tree.Tree {
	b := tree.NewBuilder(lt)
	lab := func() string { return string(rune('a' + rng.Intn(alphabet))) }
	var cp func(src, dst int32)
	cp = func(src, dst int32) {
		for c := t.Nodes[src].FirstChild; c != tree.None; c = t.Nodes[c].NextSibling {
			id := b.ChildID(dst, t.Nodes[c].Label)
			cp(c, id)
		}
	}
	root := b.RootID(t.Nodes[t.Root()].Label)
	cp(t.Root(), root)
	out := b.MustBuild()
	for e := 0; e < k; e++ {
		nodes := out.Nodes
		v := int32(rng.Intn(len(nodes)))
		if rng.Intn(2) == 0 { // relabel
			out.Nodes[v].Label = lt.Intern(lab())
		} else { // append a leaf child
			nb := tree.NewBuilder(lt)
			var cp2 func(src, dst int32)
			cp2 = func(src, dst int32) {
				for c := out.Nodes[src].FirstChild; c != tree.None; c = out.Nodes[c].NextSibling {
					cp2(c, nb.ChildID(dst, out.Nodes[c].Label))
				}
				if src == v {
					nb.Child(dst, lab())
				}
			}
			r := nb.RootID(out.Nodes[out.Root()].Label)
			cp2(out.Root(), r)
			out = nb.MustBuild()
		}
	}
	return out
}

// TestPrepareMirroredMatchesMirror checks the arena's right-path arrays,
// built without materialising the mirror, against the reference (prepare
// over the materialised mirror): identical postorder labels, leftmost-leaf
// indices, keyroots, and parent ranks.
func TestPrepareMirroredMatchesMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		lt := tree.NewLabelTable()
		tr := randTree(rng, 24, 4, lt)
		v := BuildViews([]*tree.Tree{tr})[0]
		m := Mirror(tr)
		want := prepare(m)
		if len(v.RLabels) != len(want.labels) {
			t.Fatalf("size mismatch: %d vs %d", len(v.RLabels), len(want.labels))
		}
		rank := make([]int32, m.Size())
		for i, u := range want.nodes {
			rank[u] = int32(i)
		}
		for i, u := range want.nodes {
			if v.RLabels[i] != want.labels[i] || v.Rml[i] != want.lml[i] {
				t.Fatalf("iter %d: arrays differ at postorder %d: label %d/%d lml %d/%d",
					iter, i, v.RLabels[i], want.labels[i], v.Rml[i], want.lml[i])
			}
			wantParent := int32(-1)
			if p := m.Nodes[u].Parent; p != tree.None {
				wantParent = rank[p]
			}
			if v.RParent[i] != wantParent {
				t.Fatalf("iter %d: parent at postorder %d = %d, want %d", iter, i, v.RParent[i], wantParent)
			}
		}
		if !slices.Equal(v.RKeyroots, want.keyroots) {
			t.Fatalf("keyroots differ: %v vs %v", v.RKeyroots, want.keyroots)
		}
	}
}

// tauSweep builds the τ values the property tests exercise for a pair with
// true distance d: 0, around d (exactly at, just below, just above), and at
// and beyond the trivial maximum n1+n2.
func tauSweep(d, max int) []int {
	taus := []int{0, 1, d - 1, d, d + 1, d + 3, max, max + 5}
	out := taus[:0]
	for _, tau := range taus {
		if tau >= 0 {
			out = append(out, tau)
		}
	}
	return out
}

// TestBandedAgreesWithOracleTauSweep is the τ-sweep property test: for
// random tree pairs, the banded verifier (through the tree-level
// DistanceBounded) must agree with the unbounded Zhang–Shasha oracle on the
// ≤ τ verdict at every τ — including τ<0, τ=0, τ exactly at the true
// distance, and τ ≥ the maximum possible distance — and report the exact
// distance whenever the verdict is positive.
func TestBandedAgreesWithOracleTauSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(iter int, t1, t2 *tree.Tree) {
		t.Helper()
		want := ZhangShasha(t1, t2) // unbounded oracle
		if d, ok := DistanceBounded(t1, t2, -1); ok || d != 0 {
			t.Fatalf("iter %d τ=-1: (%d,%v), want (0,false)", iter, d, ok)
		}
		for _, tau := range tauSweep(want, t1.Size()+t2.Size()) {
			got, ok := DistanceBounded(t1, t2, tau)
			if ok != (want <= tau) {
				t.Fatalf("iter %d τ=%d: banded verdict %v, oracle distance %d", iter, tau, ok, want)
			}
			if ok && got != want {
				t.Fatalf("iter %d τ=%d: banded distance %d, oracle %d", iter, tau, got, want)
			}
			if !ok && got <= tau {
				t.Fatalf("iter %d τ=%d: negative verdict with distance %d ≤ τ", iter, tau, got)
			}
		}
	}
	// Independent random pairs: mostly distant, exercising aborts and skips.
	for iter := 0; iter < 250; iter++ {
		lt := tree.NewLabelTable()
		check(iter, randTree(rng, 14, 3, lt), randTree(rng, 14, 3, lt))
	}
	// Near-duplicate pairs: small true distances on larger trees, exercising
	// the exact-within-band path.
	for iter := 0; iter < 120; iter++ {
		lt := tree.NewLabelTable()
		t1 := randTree(rng, 40, 4, lt)
		t2 := mutate(rng, t1, rng.Intn(4), 4, lt)
		check(1000+iter, t1, t2)
	}
}

// TestUnbandedFallbackMatchesOracle: pairs whose band exceeds maxViewBand
// are decided by distanceUnbanded, under the kernel's tri-state contract.
// Reaching it through DistanceBoundedView takes two 8000-node trees, so the
// fallback is called directly on small trees and checked against the
// unbounded oracle across the τ sweep.
func TestUnbandedFallbackMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 100; iter++ {
		lt := tree.NewLabelTable()
		t1 := randTree(rng, 20, 3, lt)
		t2 := mutate(rng, t1, rng.Intn(5), 3, lt)
		if iter%2 == 1 {
			t2 = randTree(rng, 20, 3, lt)
		}
		want := ZhangShasha(t1, t2)
		for _, tau := range tauSweep(want, t1.Size()+t2.Size()) {
			d, ok := distanceUnbanded(t1, t2, tau)
			if ok != (want <= tau) || (ok && d != want) || (!ok && d != tau+1) {
				t.Fatalf("iter %d τ=%d: (%d,%v), oracle distance %d", iter, tau, d, ok, want)
			}
		}
	}
}

// TestBandedCountersFire makes sure the instrumentation actually counts: a
// pair pruned by the lower bounds records DPAvoided, and a distant
// same-size pair records band aborts (and, with scattered leaves, keyroot
// skips).
func TestBandedCountersFire(t *testing.T) {
	lt := tree.NewLabelTable()
	small := tree.MustParseBracket("{a}", lt)
	big := tree.MustParseBracket("{a{b{c}}{d}{e}}", lt)
	var tc Counters
	if _, ok := DistanceBoundedPrep(NewPrep(small), NewPrep(big), 1, &tc); ok {
		t.Fatal("size-distant pair accepted")
	}
	if tc.DPAvoided.Load() != 1 {
		t.Fatalf("DPAvoided = %d, want 1", tc.DPAvoided.Load())
	}
	// Same shape, all labels differ → label LB may pass alphabet reuse, so
	// build trees whose every row is a mismatch: distance = size, τ = 1.
	rng := rand.New(rand.NewSource(3))
	t1 := randTree(rng, 30, 2, lt)
	t2 := mutate(rng, t1, 12, 2, lt)
	tc = Counters{}
	_, _ = DistanceBoundedPrep(NewPrep(t1), NewPrep(t2), 0, &tc)
	if tc.BandAborts.Load() == 0 && tc.KeyrootsSkipped.Load() == 0 && tc.DPAvoided.Load() == 0 {
		t.Fatal("no pruning counter fired on a distant pair at τ=0")
	}
}

// TestPooledScratchConcurrent hammers the pooled DP scratch from many
// goroutines verifying the same trees through DistanceBounded and asserts
// bitwise-identical results to the serial run. Run under -race this is the
// detector test for the sync.Pool reuse.
func TestPooledScratchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lt := tree.NewLabelTable()
	const nTrees = 14
	trees := make([]*tree.Tree, nTrees)
	for i := range trees {
		if i%2 == 1 {
			trees[i] = mutate(rng, trees[i-1], 1+rng.Intn(3), 3, lt)
		} else {
			trees[i] = randTree(rng, 22, 3, lt)
		}
	}
	type key struct{ i, j, tau int }
	serial := make(map[key]string)
	taus := []int{0, 1, 2, 5}
	for i := 0; i < nTrees; i++ {
		for j := i + 1; j < nTrees; j++ {
			for _, tau := range taus {
				d, ok := DistanceBounded(trees[i], trees[j], tau)
				serial[key{i, j, tau}] = fmt.Sprint(d, ok)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for n := 0; n < 400; n++ {
				i, j := r.Intn(nTrees), r.Intn(nTrees)
				if i == j {
					continue
				}
				if i > j {
					i, j = j, i
				}
				tau := taus[r.Intn(len(taus))]
				d, ok := DistanceBounded(trees[i], trees[j], tau)
				if got := fmt.Sprint(d, ok); got != serial[key{i, j, tau}] {
					select {
					case errs <- fmt.Sprintf("pair (%d,%d) τ=%d: concurrent %s, serial %s", i, j, tau, got, serial[key{i, j, tau}]):
					default:
					}
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
