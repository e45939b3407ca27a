package ted

import (
	"treejoin/internal/tree"
)

// strategyCost estimates the number of DP cells Zhang–Shasha touches for one
// tree under the left- or right-path decomposition: the sum of subtree sizes
// over the decomposition's keyroots (the product of the two trees' sums
// bounds the total work, as in the RTED cost model).
func strategyCost(t *tree.Tree) (left, right int64) {
	sizes := tree.SubtreeSizes(t)
	left = int64(t.Size())
	right = int64(t.Size())
	for id := range t.Nodes {
		n := int32(id)
		// Has a left sibling ⇔ n is not its parent's first child.
		p := t.Nodes[n].Parent
		if p == tree.None {
			continue
		}
		if t.Nodes[p].FirstChild != n {
			left += int64(sizes[n])
		}
		if t.Nodes[n].NextSibling != tree.None {
			right += int64(sizes[n])
		}
	}
	return left, right
}

// Distance returns TED(t1, t2). It follows RTED's idea at whole-tree
// granularity: estimate the cost of the left-path and right-path
// decompositions from the tree shapes and run the cheaper one. The returned
// distance is exact either way. Both trees must share one LabelTable (label
// equality is id equality).
func Distance(t1, t2 *tree.Tree) int {
	if t1.Labels != t2.Labels {
		panic("ted: trees must share a label table")
	}
	l1, r1 := strategyCost(t1)
	l2, r2 := strategyCost(t2)
	if l1*l2 <= r1*r2 {
		return ZhangShasha(t1, t2)
	}
	return ZhangShashaRight(t1, t2)
}

// SizeLowerBound returns |size(t1) − size(t2)|, a TED lower bound: every edit
// operation changes the size of a tree by at most one.
func SizeLowerBound(t1, t2 *tree.Tree) int {
	d := t1.Size() - t2.Size()
	if d < 0 {
		d = -d
	}
	return d
}

// LabelLowerBound returns max(|t1|, |t2|) minus the size of the label-bag
// intersection, a TED lower bound: an edit operation fixes at most one label
// mismatch. The trees must share a label table.
func LabelLowerBound(t1, t2 *tree.Tree) int {
	if t1.Labels != t2.Labels {
		panic("ted: LabelLowerBound requires a shared label table")
	}
	counts := make(map[int32]int, len(t1.Nodes))
	for i := range t1.Nodes {
		counts[t1.Nodes[i].Label]++
	}
	common := 0
	for i := range t2.Nodes {
		if counts[t2.Nodes[i].Label] > 0 {
			counts[t2.Nodes[i].Label]--
			common++
		}
	}
	m := t1.Size()
	if t2.Size() > m {
		m = t2.Size()
	}
	return m - common
}

// DistanceBounded reports whether TED(t1, t2) ≤ tau, returning the exact
// distance when it is and tau+1 otherwise. It flattens both trees into
// arena views and runs DistanceBoundedView — the verifier behind every join
// method in this module; callers deciding many pairs over the same trees
// keep the views (engine.ViewFor caches them per corpus) and call
// DistanceBoundedView directly.
func DistanceBounded(t1, t2 *tree.Tree, tau int) (int, bool) {
	vs := BuildViews([]*tree.Tree{t1, t2})
	s := AcquireScratch()
	defer ReleaseScratch(s)
	return DistanceBoundedView(vs[0], vs[1], tau, s, nil)
}
