package core

import (
	"testing"

	"treejoin/internal/lcrs"
	"treejoin/internal/tree"
)

func TestSubgraphTwig(t *testing.T) {
	lt := tree.NewLabelTable()
	g := figure9Tree(lt) // 11 nodes; Compute(δ=3) cuts at l4 and l8
	b := lcrs.Build(g)
	p := Compute(b, 3)

	// Component 0 root is l4: binary left = l5 (in component), right = l6
	// (in component).
	tw := subgraphTwig(p, 0)
	l4, l5, l6 := lt.Intern("l4"), lt.Intern("l5"), lt.Intern("l6")
	if tw != (twig{root: l4, left: l5, right: l6}) {
		t.Errorf("twig(comp0) = %+v", tw)
	}
	// Component 2 (root component) root is l1: left = l2 (in component),
	// right = empty (the root has no sibling).
	tw = subgraphTwig(p, 2)
	l1, l2 := lt.Intern("l1"), lt.Intern("l2")
	if tw != (twig{root: l1, left: l2, right: slotEmpty}) {
		t.Errorf("twig(comp2) = %+v", tw)
	}
	// Component 1 root is l8: left = l9 (in component), right = l11 (also in
	// component 1).
	tw = subgraphTwig(p, 1)
	l8, l9, l11 := lt.Intern("l8"), lt.Intern("l9"), lt.Intern("l11")
	if tw != (twig{root: l8, left: l9, right: l11}) {
		t.Errorf("twig(comp1) = %+v", tw)
	}
}

func TestSubgraphTwigBridge(t *testing.T) {
	lt := tree.NewLabelTable()
	// A chain partitioned into singletons: every slot pointing at a child is
	// a bridging edge.
	g := tree.MustParseBracket("{a{b{c}}}", lt)
	b := lcrs.Build(g)
	p := Compute(b, 3) // γ = 1, three singleton components
	if p.MinSize() != 1 {
		t.Fatalf("expected singleton components, sizes %v", p.Sizes)
	}
	// The root component {a} has a bridging left slot (to b) and empty right.
	rootComp := int32(p.Delta - 1)
	tw := subgraphTwig(p, rootComp)
	if tw != (twig{root: lt.Intern("a"), left: slotBridge, right: slotEmpty}) {
		t.Errorf("twig(root comp) = %+v", tw)
	}
}

func TestProbeKeysEnumeration(t *testing.T) {
	lt := tree.NewLabelTable()
	g := tree.MustParseBracket("{a{b{d}}{c}}", lt)
	b := lcrs.Build(g)
	var keys [4]twig
	la, lb, lc, ld := lt.Intern("a"), lt.Intern("b"), lt.Intern("c"), lt.Intern("d")

	// Root a: left child b, right none → 2 keys.
	n := probeKeys(b, g.Root(), &keys)
	if n != 2 {
		t.Fatalf("root keys = %d", n)
	}
	wantRoot := map[twig]bool{
		{root: la, left: lb, right: slotEmpty}:         true,
		{root: la, left: slotBridge, right: slotEmpty}: true,
	}
	for i := 0; i < n; i++ {
		if !wantRoot[keys[i]] {
			t.Errorf("unexpected root key %+v", keys[i])
		}
	}

	// Node b: left child d, right sibling c → 4 keys.
	nb := nodeByLabel(g, "b")
	n = probeKeys(b, nb, &keys)
	if n != 4 {
		t.Fatalf("b keys = %d", n)
	}
	want := map[twig]bool{
		{root: lb, left: ld, right: lc}:                 true,
		{root: lb, left: ld, right: slotBridge}:         true,
		{root: lb, left: slotBridge, right: lc}:         true,
		{root: lb, left: slotBridge, right: slotBridge}: true,
	}
	for i := 0; i < n; i++ {
		if !want[keys[i]] {
			t.Errorf("unexpected b key %+v", keys[i])
		}
	}

	// Leaf d with no sibling → 1 key.
	nd := nodeByLabel(g, "d")
	if n = probeKeys(b, nd, &keys); n != 1 {
		t.Fatalf("d keys = %d", n)
	}
	if keys[0] != (twig{root: ld, left: slotEmpty, right: slotEmpty}) {
		t.Errorf("d key = %+v", keys[0])
	}
}

func TestPostorderRanks(t *testing.T) {
	lt := tree.NewLabelTable()
	g := figure9Tree(lt)
	b := lcrs.Build(g)
	p := Compute(b, 3)
	ranks := postorderRanks(p)
	// General postorder of the roots: l4 before l8 before l1 (the paper's
	// s1, s2, s3 order).
	if ranks[0] != 1 || ranks[1] != 2 || ranks[2] != 3 {
		t.Fatalf("ranks = %v", ranks)
	}
}

// TestProbeWindowMath verifies the size-difference-aware window directly:
// with τ=2 the window for equal sizes is r±1, for the maximal size gap it is
// one-sided.
func TestProbeWindowMath(t *testing.T) {
	lt := tree.NewLabelTable()
	// Index a 7-node tree's partition.
	pat := tree.MustParseBracket("{a{b{c}{d}}{e{f}{g}}}", lt)
	bp := lcrs.Build(pat)
	tau := 2
	p := Compute(bp, 2*tau+1)
	ix := newInvIndex(tau, PositionSafe)
	ix.insert(0, p)

	// Probing with the identical tree must visit every component once per
	// matching (node, window) position; in particular each component's root
	// node probe must see its own entry.
	parts := []*Partition{p}
	var sc matchScratch
	hits := make(map[int32]bool)
	for _, n := range bp.Order {
		ix.probe(bp, n, ix.window(pat.Size(), pat.Size()), func(e entry) {
			if matches(parts[e.tree], e.comp, bp, n, &sc) {
				hits[e.comp] = true
			}
		})
	}
	for c := 0; c < p.Delta; c++ {
		if !hits[int32(c)] {
			t.Fatalf("component %d not reachable via probe on identical tree", c)
		}
	}
}

// TestPositionOffSingleBucket: with the position layer off, everything lives
// in bucket zero and probes ignore positions entirely.
func TestPositionOffSingleBucket(t *testing.T) {
	lt := tree.NewLabelTable()
	pat := tree.MustParseBracket("{a{b}{c}{d}{e}}", lt)
	bp := lcrs.Build(pat)
	p := Compute(bp, 3)
	ix := newInvIndex(1, PositionOff)
	added := ix.insert(0, p)
	if added != int64(p.Delta) {
		t.Fatalf("PositionOff added %d entries, want %d", added, p.Delta)
	}
	si := ix.bySize[pat.Size()]
	if si == nil || len(si.byPos) != 1 {
		t.Fatalf("PositionOff should use exactly one position bucket")
	}
}

// TestPaperModeStoresRanges: PositionPaper materialises 2∆′+1 entries per
// subgraph.
func TestPaperModeStoresRanges(t *testing.T) {
	lt := tree.NewLabelTable()
	pat := tree.MustParseBracket("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", lt)
	bp := lcrs.Build(pat)
	tau := 2
	delta := 2*tau + 1
	p := Compute(bp, delta)
	ix := newInvIndex(tau, PositionPaper)
	added := ix.insert(0, p)
	// Σ_k (2·(τ−⌊k/2⌋)+1) for k=1..5, τ=2: 5+3+3+1+1 = 13, minus any range
	// clamped at position 0.
	if added > 13 || added < int64(delta) {
		t.Fatalf("PositionPaper added %d entries", added)
	}
}
