// Package ted computes the tree edit distance (TED) between rooted ordered
// labeled trees under the standard unit-cost model (insert, delete, rename).
//
// The package provides the Zhang–Shasha algorithm (the [29] component of
// RTED), its right-path variant obtained by mirroring both trees, and
// Distance, an RTED-style hybrid that picks the cheaper of the two
// decompositions from the trees' shapes: all algorithms return the exact
// same distance value; the strategy choice only affects runtime. The
// similarity joins verify candidates with the τ-banded form of the same DP
// over arena views (banded.go, arena.go), with these unbounded algorithms
// as its oracle.
package ted

import (
	"slices"

	"treejoin/internal/tree"
)

// prep holds the postorder-indexed arrays the Zhang–Shasha DP consumes.
type prep struct {
	labels   []int32 // label of the node at postorder index i (0-based)
	lml      []int32 // postorder index of the leftmost leaf of the subtree at i
	keyroots []int32 // ascending postorder indices of the LR-keyroots
	nodes    []int32 // node id at postorder index i (for mapping extraction)
}

// prepare computes the Zhang–Shasha arrays for t.
func prepare(t *tree.Tree) *prep {
	post := tree.Postorder(t)
	n := len(post)
	rank := make([]int32, n)
	for i, v := range post {
		rank[v] = int32(i)
	}
	p := &prep{labels: make([]int32, n), lml: make([]int32, n), nodes: post}
	for i, v := range post {
		p.labels[i] = t.Nodes[v].Label
		leaf := v
		for t.Nodes[leaf].FirstChild != tree.None {
			leaf = t.Nodes[leaf].FirstChild
		}
		p.lml[i] = rank[leaf]
	}
	// A node is a keyroot iff no node with a larger postorder index shares
	// its leftmost leaf (i.e. it has a left sibling, or it is the root).
	seen := make([]bool, n)
	for i := n - 1; i >= 0; i-- {
		if !seen[p.lml[i]] {
			seen[p.lml[i]] = true
			p.keyroots = append(p.keyroots, int32(i))
		}
	}
	// Collected in descending order above; reverse to ascending.
	slices.Reverse(p.keyroots)
	return p
}

// ZhangShasha returns TED(t1, t2) using the classic left-path decomposition:
// O(n²) space and O(n² · min(depth, leaves)²) time.
func ZhangShasha(t1, t2 *tree.Tree) int {
	return zs(prepare(t1), prepare(t2))
}

func zs(a, b *prep) int {
	td := computeTreeDists(a, b)
	n1, n2 := len(a.labels), len(b.labels)
	return int(td[(n1-1)*n2+(n2-1)])
}

// computeTreeDists fills the full subtree-distance matrix td[i*n2+j] =
// TED(subtree a_i, subtree b_j) by running the forest DP over every keyroot
// pair.
func computeTreeDists(a, b *prep) []int32 {
	n1, n2 := len(a.labels), len(b.labels)
	td := make([]int32, n1*n2)
	fd := make([]int32, (n1+1)*(n2+1))
	for _, i := range a.keyroots {
		for _, j := range b.keyroots {
			forestDP(a, b, i, j, td, fd, true)
		}
	}
	return td
}

// forestDP runs one forest-distance DP for the subtree pair rooted at
// postorder indices (i, j), reading subtree distances from td and optionally
// recording the tree-tree cells back into td. fd must have room for
// (n1+1)·(n2+1) cells; its row stride is len(b.labels)+1.
func forestDP(a, b *prep, i, j int32, td, fd []int32, writeTD bool) {
	n2 := len(b.labels)
	w := n2 + 1
	li, lj := a.lml[i], b.lml[j]
	m, n := int(i-li)+1, int(j-lj)+1
	fd[0] = 0
	for di := 1; di <= m; di++ {
		fd[di*w] = fd[(di-1)*w] + 1
	}
	for dj := 1; dj <= n; dj++ {
		fd[dj] = fd[dj-1] + 1
	}
	for di := 1; di <= m; di++ {
		ai := li + int32(di) - 1
		for dj := 1; dj <= n; dj++ {
			bj := lj + int32(dj) - 1
			del := fd[(di-1)*w+dj] + 1
			ins := fd[di*w+dj-1] + 1
			var sub int32
			treeCase := a.lml[ai] == li && b.lml[bj] == lj
			if treeCase {
				// Both prefixes end in a full subtree whose leftmost leaf
				// starts the forest: tree-tree case.
				cost := int32(1)
				if a.labels[ai] == b.labels[bj] {
					cost = 0
				}
				sub = fd[(di-1)*w+dj-1] + cost
			} else {
				sub = fd[int(a.lml[ai]-li)*w+int(b.lml[bj]-lj)] + td[int(ai)*n2+int(bj)]
			}
			best := del
			if ins < best {
				best = ins
			}
			if sub < best {
				best = sub
			}
			fd[di*w+dj] = best
			if treeCase && writeTD {
				td[int(ai)*n2+int(bj)] = best
			}
		}
	}
}

// Mirror returns the tree with every node's children reversed. TED is
// invariant under mirroring both inputs, which turns the left-path
// decomposition into a right-path one.
func Mirror(t *tree.Tree) *tree.Tree {
	b := tree.NewBuilder(t.Labels)
	var copyRev func(src, dst int32)
	copyRev = func(src, dst int32) {
		cs := t.Children(src)
		for i := len(cs) - 1; i >= 0; i-- {
			id := b.ChildID(dst, t.Nodes[cs[i]].Label)
			copyRev(cs[i], id)
		}
	}
	root := b.RootID(t.Nodes[t.Root()].Label)
	copyRev(t.Root(), root)
	return b.MustBuild()
}

// ZhangShashaRight returns TED(t1, t2) using the right-path decomposition
// (Zhang–Shasha on the mirrored trees). The value is identical to
// ZhangShasha; the work differs on left-deep versus right-deep shapes.
func ZhangShashaRight(t1, t2 *tree.Tree) int {
	return ZhangShasha(Mirror(t1), Mirror(t2))
}
