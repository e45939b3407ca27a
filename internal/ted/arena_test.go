package ted

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"treejoin/internal/tree"
)

// TestBuildViewsMatchesPrepare checks that arena views are bit-identical to
// the Zhang–Shasha arrays of the oracle: left arrays against prepare,
// mirrored arrays against prepare over the materialised mirror, keyroots of
// both directions, the lml-sorted keyroot orders, strategy costs, the sorted
// label multiset, and the structural arrays (depth, parent, subtree size)
// against naive recomputation from the tree.
func TestBuildViewsMatchesPrepare(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 200; iter++ {
		lt := tree.NewLabelTable()
		tr := randTree(rng, 40, 4, lt)
		v := BuildViews([]*tree.Tree{tr})[0]
		n := tr.Size()
		if v.Size() != n {
			t.Fatalf("iter %d: view size %d, tree size %d", iter, v.Size(), n)
		}

		checkDir := func(dir string, p *prep, labels, lml, kr, krByLml []int32) {
			for i := range p.labels {
				if labels[i] != p.labels[i] || lml[i] != p.lml[i] {
					t.Fatalf("iter %d: %s arrays differ at %d: label %d/%d lml %d/%d",
						iter, dir, i, labels[i], p.labels[i], lml[i], p.lml[i])
				}
			}
			if len(kr) != len(p.keyroots) {
				t.Fatalf("iter %d: %s keyroot count %d, want %d", iter, dir, len(kr), len(p.keyroots))
			}
			for i := range kr {
				if kr[i] != p.keyroots[i] {
					t.Fatalf("iter %d: %s keyroots differ at %d: %d vs %d", iter, dir, i, kr[i], p.keyroots[i])
				}
			}
			// krByLml: the same set, sorted by ascending lml.
			seen := make(map[int32]bool, len(kr))
			for _, k := range kr {
				seen[k] = true
			}
			for i, k := range krByLml {
				if !seen[k] {
					t.Fatalf("iter %d: %s krByLml[%d]=%d is not a keyroot", iter, dir, i, k)
				}
				if i > 0 && lml[krByLml[i-1]] >= lml[k] {
					t.Fatalf("iter %d: %s krByLml not strictly ascending by lml at %d", iter, dir, i)
				}
			}
		}
		checkDir("left", prepare(tr), v.Labels, v.Lml, v.Keyroots, v.KrByLml)
		checkDir("right", prepare(Mirror(tr)), v.RLabels, v.Rml, v.RKeyroots, v.RKrByLml)

		wantL, wantR := strategyCost(tr)
		if v.CostL != wantL || v.CostR != wantR {
			t.Fatalf("iter %d: costs (%d,%d), want (%d,%d)", iter, v.CostL, v.CostR, wantL, wantR)
		}
		labels := make([]int32, 0, n)
		for i := range tr.Nodes {
			labels = append(labels, tr.Nodes[i].Label)
		}
		slices.Sort(labels)
		if !slices.Equal(v.SortedLabels, labels) {
			t.Fatalf("iter %d: sorted labels %v, want %v", iter, v.SortedLabels, labels)
		}

		// Structural arrays against naive per-node recomputation.
		post := tree.Postorder(tr)
		rank := make(map[int32]int32, n)
		for i, u := range post {
			rank[u] = int32(i)
		}
		sizes := tree.SubtreeSizes(tr)
		for i, u := range post {
			depth := int32(0)
			for p := tr.Nodes[u].Parent; p != tree.None; p = tr.Nodes[p].Parent {
				depth++
			}
			if v.Depth[i] != depth {
				t.Fatalf("iter %d: depth[%d]=%d, want %d", iter, i, v.Depth[i], depth)
			}
			wantParent := int32(-1)
			if p := tr.Nodes[u].Parent; p != tree.None {
				wantParent = rank[p]
			}
			if v.Parent[i] != wantParent {
				t.Fatalf("iter %d: parent[%d]=%d, want %d", iter, i, v.Parent[i], wantParent)
			}
			if v.SubtreeSize[i] != sizes[u] {
				t.Fatalf("iter %d: subtreeSize[%d]=%d, want %d", iter, i, v.SubtreeSize[i], sizes[u])
			}
		}
	}
}

// TestArenaAgreesWithOracleTauSweep is the arena verifier's equivalence
// property: for random pairs (including mutated near-duplicates, where bands
// matter) and every τ from 0 past the true distance, the arena DP and the
// unbounded Zhang–Shasha oracle agree on verdict AND distance — in
// strategy-driven mode and with each decomposition forced.
func TestArenaAgreesWithOracleTauSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := AcquireScratch()
	defer ReleaseScratch(s)
	for iter := 0; iter < 150; iter++ {
		lt := tree.NewLabelTable()
		t1 := randTree(rng, 28, 3, lt)
		var t2 *tree.Tree
		if iter%2 == 0 {
			t2 = mutate(rng, t1, 1+rng.Intn(4), 3, lt)
		} else {
			t2 = randTree(rng, 28, 3, lt)
		}
		exact := ZhangShasha(t1, t2)
		vs := BuildViews([]*tree.Tree{t1, t2})
		for tau := 0; tau <= exact+2; tau++ {
			for _, dec := range []Decomp{DecompAuto, DecompLeft, DecompRight} {
				gd, gok := DistanceBoundedViewDecomp(vs[0], vs[1], tau, dec, s, nil)
				if !gok && gd != tau+1 {
					t.Fatalf("iter %d τ=%d dec=%d: negative verdict reported %d, want τ+1", iter, tau, dec, gd)
				}
				if gok != (exact <= tau) {
					t.Fatalf("iter %d τ=%d dec=%d: verdict %v, exact %d", iter, tau, dec, gok, exact)
				}
				if gok && gd != exact {
					t.Fatalf("iter %d τ=%d dec=%d: distance %d, exact %d", iter, tau, dec, gd, exact)
				}
			}
		}
	}
}

// TestArenaCountersMatchNaive: the arena verifier's pruning counters match
// a naive recount — DPAvoided is the number of pairs the size or label lower
// bound settles, KeyrootsSkipped the number of keyroot pairs of the chosen
// decomposition whose leftmost leaves sit more than the band apart (the
// τ-window must skip exactly those), BandAborts never exceeds the keyroot
// pairs left to run — and the strategy split sums to the number of pairs
// that reached a DP.
func TestArenaCountersMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := AcquireScratch()
	defer ReleaseScratch(s)
	lt := tree.NewLabelTable()
	var trees []*tree.Tree
	for i := 0; i < 12; i++ {
		trees = append(trees, randTree(rng, 30, 3, lt))
	}
	vs := BuildViews(trees)
	for _, tau := range []int{1, 3, 6} {
		var tc Counters
		var avoided, dps, skipped, run int64
		for i := range trees {
			for j := i + 1; j < len(trees); j++ {
				_, _ = DistanceBoundedView(vs[i], vs[j], tau, s, &tc)
				a, b := vs[i], vs[j]
				d := a.Size() - b.Size()
				if d < 0 {
					d = -d
				}
				if d > tau || LabelLowerBound(trees[i], trees[j]) > tau {
					avoided++
					continue
				}
				dps++
				bt := min(tau, a.Size()+b.Size())
				alml, akr, blml, bkr := a.Lml, a.Keyroots, b.Lml, b.Keyroots
				if chooseDecomp(a.CostL, a.CostR, b.CostL, b.CostR) == DecompRight {
					alml, akr, blml, bkr = a.Rml, a.RKeyroots, b.Rml, b.RKeyroots
				}
				for _, ki := range akr {
					for _, kj := range bkr {
						if d := int(alml[ki] - blml[kj]); d > bt || -d > bt {
							skipped++
						} else {
							run++
						}
					}
				}
			}
		}
		if got := tc.DPAvoided.Load(); got != avoided {
			t.Fatalf("τ=%d: DPAvoided %d, naive %d", tau, got, avoided)
		}
		if got := tc.KeyrootsSkipped.Load(); got != skipped {
			t.Fatalf("τ=%d: KeyrootsSkipped %d, naive %d", tau, got, skipped)
		}
		if got := tc.BandAborts.Load(); got > run {
			t.Fatalf("τ=%d: BandAborts %d exceeds the %d keyroot DPs run", tau, got, run)
		}
		if got := tc.StrategyLeft.Load() + tc.StrategyRight.Load(); got != dps {
			t.Fatalf("τ=%d: strategy counts sum to %d, want %d DPs", tau, got, dps)
		}
	}
}

// TestArenaVerifyZeroAllocs is the per-pair allocation gate at its source:
// with views built and a scratch warmed, deciding a batch of candidates
// allocates nothing.
func TestArenaVerifyZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lt := tree.NewLabelTable()
	var trees []*tree.Tree
	for i := 0; i < 10; i++ {
		trees = append(trees, randTree(rng, 40, 4, lt))
	}
	vs := BuildViews(trees)
	s := AcquireScratch()
	defer ReleaseScratch(s)
	for i := range trees { // warm the scratch to steady-state capacity
		for j := i + 1; j < len(trees); j++ {
			DistanceBoundedView(vs[i], vs[j], 6, s, nil)
		}
	}
	var tc Counters
	allocs := testing.AllocsPerRun(20, func() {
		for i := range trees {
			for j := i + 1; j < len(trees); j++ {
				DistanceBoundedView(vs[i], vs[j], 6, s, &tc)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("arena verify allocated %.1f times per batch, want 0", allocs)
	}
}

// TestArenaScratchConcurrent hammers pooled scratches from many goroutines
// over a shared arena (the race detector patrols this in CI): every result
// must still match the sequential verdict.
func TestArenaScratchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lt := tree.NewLabelTable()
	var trees []*tree.Tree
	for i := 0; i < 16; i++ {
		trees = append(trees, randTree(rng, 24, 3, lt))
	}
	vs := BuildViews(trees)
	const tau = 4
	type cand struct{ i, j, want int }
	var cands []cand
	seq := AcquireScratch()
	for i := range trees {
		for j := i + 1; j < len(trees); j++ {
			d, _ := DistanceBoundedView(vs[i], vs[j], tau, seq, nil)
			cands = append(cands, cand{i, j, d})
		}
	}
	ReleaseScratch(seq)
	var wg sync.WaitGroup
	var tc Counters
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := AcquireScratch()
			defer ReleaseScratch(s)
			for _, c := range cands {
				if d, _ := DistanceBoundedView(vs[c.i], vs[c.j], tau, s, &tc); d != c.want {
					t.Errorf("pair (%d,%d): got %d, want %d", c.i, c.j, d, c.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestArenaTinyAndEqualTrees pins the edge geometry: single-node trees,
// identical trees (distance 0 at τ=0, where the band is one diagonal), and
// maximally distant ones.
func TestArenaTinyAndEqualTrees(t *testing.T) {
	lt := tree.NewLabelTable()
	b := tree.NewBuilder(lt)
	b.Root("a")
	one := b.MustBuild()
	b2 := tree.NewBuilder(lt)
	b2.Root("b")
	oneB := b2.MustBuild()
	rng := rand.New(rand.NewSource(77))
	big := randTree(rng, 30, 3, lt)
	vs := BuildViews([]*tree.Tree{one, oneB, big, big})
	s := AcquireScratch()
	defer ReleaseScratch(s)
	if d, ok := DistanceBoundedView(vs[0], vs[0], 0, s, nil); !ok || d != 0 {
		t.Fatalf("self distance at τ=0: (%d,%v)", d, ok)
	}
	if d, ok := DistanceBoundedView(vs[0], vs[1], 0, s, nil); ok || d != 1 {
		t.Fatalf("relabel at τ=0: (%d,%v), want (1,false)", d, ok)
	}
	if d, ok := DistanceBoundedView(vs[0], vs[1], 1, s, nil); !ok || d != 1 {
		t.Fatalf("relabel at τ=1: (%d,%v), want (1,true)", d, ok)
	}
	if d, ok := DistanceBoundedView(vs[2], vs[3], 0, s, nil); !ok || d != 0 {
		t.Fatalf("identical trees at τ=0: (%d,%v)", d, ok)
	}
	want := ZhangShasha(one, big)
	if d, ok := DistanceBoundedView(vs[0], vs[2], want, s, nil); !ok || d != want {
		t.Fatalf("leaf vs big at τ=%d: (%d,%v)", want, d, ok)
	}
}
