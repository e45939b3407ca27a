// Struct-of-arrays tree arenas. At paper scale the verifier's DP is
// memory-bound, so this file flattens every tree of a collection into
// postorder-indexed parallel slices carved out of one contiguous int32 block:
//
//   - labels and leftmost-leaf indices of the left-path decomposition,
//   - the same two arrays of the mirrored (right-path) decomposition
//     (≡ prepare(Mirror(t)), built without materialising the mirror) —
//     the strategy-driven kernel flips between the two array sets per pair,
//   - keyroots of both decompositions, each also sorted by leftmost leaf so
//     the banded kernel binary-searches its τ-window instead of scanning,
//   - depth, parent, and subtree size (postorder-indexed), and the sorted
//     label multiset behind the label lower bound,
//   - the left/right strategy costs the per-pair decomposition choice reads.
//
// BuildViews lays a whole collection out back-to-back, so a join's verify
// stage streams through one arena instead of chasing per-tree pointers; the
// engine caches the views per tree under "ted/arena", which keeps them warm
// across joins and lets the dynamic corpus evict exactly the removed trees.
package ted

import (
	"slices"

	"treejoin/internal/tree"
)

// TreeView is the arena image of one tree: every per-tree array the
// strategy-driven banded verifier reads, postorder-indexed, all backed by
// one contiguous block shared with the other trees of its build batch. A
// TreeView is immutable after construction and safe to share across
// goroutines.
type TreeView struct {
	// T is the tree this view flattens, kept for the oversized-band fallback
	// and for tests; the kernel itself never touches it.
	T *tree.Tree

	// Left-path (standard postorder) decomposition arrays, exactly the
	// arrays prepare(T) computes.
	Labels []int32 // label of the node at postorder index i
	Lml    []int32 // postorder index of the leftmost leaf of the subtree at i

	// Right-path decomposition arrays over the mirrored postorder, exactly
	// the arrays prepare(Mirror(T)) computes.
	RLabels []int32
	Rml     []int32

	// Keyroots of each decomposition, ascending by postorder index, plus the
	// same sets reordered by ascending leftmost-leaf index: the banded kernel
	// binary-searches the lml-window |lml − li| ≤ τ in the latter.
	Keyroots  []int32
	KrByLml   []int32
	RKeyroots []int32
	RKrByLml  []int32

	// Structural arrays indexed by left postorder position: node depth
	// (root = 0), the postorder index of the parent (−1 for the root), and
	// the subtree size (i − Lml[i] + 1, stored so consumers — serialisation,
	// future filters — need no recomputation). RParent is the parent array
	// over mirrored postorder indices (the parent relation is mirror-
	// invariant; only the ranks change): the kernel walks it to enumerate a
	// keyroot's decomposition path under the right-path arrays.
	Depth       []int32
	Parent      []int32
	RParent     []int32
	SubtreeSize []int32

	// SortedLabels is the label multiset sorted ascending, for the merge-based
	// label lower bound.
	SortedLabels []int32

	// CostL and CostR are the RTED-style strategy costs of the left- and
	// right-path decompositions; the per-pair decomposition choice
	// multiplies them.
	CostL, CostR int64
}

// Size returns the tree's node count.
func (v *TreeView) Size() int { return len(v.Labels) }

// BuildViews flattens a collection into arena views backed by one contiguous
// int32 block: per tree, 9·n array cells plus 4·leaves keyroot cells, laid
// out back-to-back in collection order. Construction allocates (it is a
// build-time, per-collection cost the engine caches, and a per-call cost for
// a search query's view); verification over the views does not.
func BuildViews(ts []*tree.Tree) []*TreeView {
	total, maxN := 0, 0
	for _, t := range ts {
		total += 9*t.Size() + 4*leafCount(t)
		maxN = max(maxN, t.Size())
	}
	block := make([]int32, total)
	structs := make([]TreeView, len(ts))
	views := make([]*TreeView, len(ts))
	sc := newViewScratch(maxN)
	off := 0
	for i, t := range ts {
		views[i] = &structs[i]
		off = buildView(views[i], t, block, off, sc)
	}
	return views
}

// leafCount returns the number of leaves of t — also the keyroot count of
// either decomposition (each leaf is the decomposition leaf of itself, and
// every keyroot owns a distinct one).
func leafCount(t *tree.Tree) int {
	n := 0
	for i := range t.Nodes {
		if t.Nodes[i].FirstChild == tree.None {
			n++
		}
	}
	return n
}

// postFrame is one level of the iterative postorder walk: a node and the
// next child to visit.
type postFrame struct{ node, child int32 }

// viewScratch is buildView's working memory, sized for the largest tree of a
// batch and reused across it: node-id-indexed postorder ranks and
// decomposition leaves, the child links a postorder walk follows, a
// postorder, the keyroot owner table, and the walk's stack.
type viewScratch struct {
	rank, leaf, first, next, post, owner []int32
	stack                                []postFrame
}

func newViewScratch(n int) *viewScratch {
	buf := make([]int32, 6*n)
	return &viewScratch{
		rank: buf[:n], leaf: buf[n : 2*n], first: buf[2*n : 3*n],
		next: buf[3*n : 4*n], post: buf[4*n : 5*n], owner: buf[5*n:],
		stack: make([]postFrame, 0, 16),
	}
}

// walkPost returns the postorder from root that visits each node u's
// children starting at sc.first[u] and following sc.next.
func (sc *viewScratch) walkPost(root int32) []int32 {
	post := sc.post[:0]
	stack := append(sc.stack[:0], postFrame{root, sc.first[root]})
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.child == tree.None {
			post = append(post, top.node)
			stack = stack[:len(stack)-1]
			continue
		}
		c := top.child
		top.child = sc.next[c]
		stack = append(stack, postFrame{c, sc.first[c]})
	}
	sc.stack = stack
	return post
}

// buildView fills v with t's view, carving its arrays from block[off:], and
// returns the new offset.
func buildView(v *TreeView, t *tree.Tree, block []int32, off int, sc *viewScratch) int {
	n := t.Size()
	leaves := leafCount(t)
	take := func(k int) []int32 {
		s := block[off : off+k : off+k]
		off += k
		return s
	}
	v.T = t
	v.Labels, v.Lml = take(n), take(n)
	v.RLabels, v.Rml = take(n), take(n)
	v.Keyroots, v.KrByLml = take(leaves), take(leaves)
	v.RKeyroots, v.RKrByLml = take(leaves), take(leaves)
	v.Depth, v.Parent, v.RParent, v.SubtreeSize = take(n), take(n), take(n), take(n)
	v.SortedLabels = take(n)

	// Left decomposition: standard postorder, leftmost leaves memoised
	// bottom-up (children precede parents in postorder).
	first, next := sc.first, sc.next
	for id := range t.Nodes {
		first[id], next[id] = t.Nodes[id].FirstChild, t.Nodes[id].NextSibling
	}
	post := sc.walkPost(t.Root())
	rank, leafNode := sc.rank, sc.leaf
	for i, u := range post {
		rank[u] = int32(i)
		if fc := first[u]; fc == tree.None {
			leafNode[u] = u
		} else {
			leafNode[u] = leafNode[fc]
		}
	}
	// The strategy costs (see strategyCost) sum, over every non-root node,
	// its subtree size once per sibling it has on the decomposition side.
	v.CostL, v.CostR = int64(n), int64(n)
	for i, u := range post {
		nd := &t.Nodes[u]
		v.Labels[i] = nd.Label
		v.Lml[i] = rank[leafNode[u]]
		size := int32(i) - v.Lml[i] + 1
		v.SubtreeSize[i] = size
		if nd.Parent == tree.None {
			v.Parent[i] = -1
			continue
		}
		v.Parent[i] = rank[nd.Parent]
		if t.Nodes[nd.Parent].FirstChild != u {
			v.CostL += int64(size)
		}
		if nd.NextSibling != tree.None {
			v.CostR += int64(size)
		}
	}
	// Parents follow their children in postorder, so a descending pass sees
	// every parent's depth before its children's (the root's stays 0).
	for i := n - 2; i >= 0; i-- {
		v.Depth[i] = v.Depth[v.Parent[i]] + 1
	}
	fillKeyroots(v.Lml, v.Keyroots, v.KrByLml, sc.owner)

	// Right decomposition: mirrored postorder — children walked
	// right-to-left through inverted sibling links (first becomes the last
	// child, next the previous sibling), decomposition leaf = rightmost leaf.
	for id := range t.Nodes {
		var p int32 = tree.None
		for c := t.Nodes[id].FirstChild; c != tree.None; c = t.Nodes[c].NextSibling {
			next[c] = p
			p = c
		}
		first[id] = p
	}
	rpost := sc.walkPost(t.Root())
	for i, u := range rpost {
		rank[u] = int32(i)
		if lc := first[u]; lc == tree.None {
			leafNode[u] = u
		} else {
			leafNode[u] = leafNode[lc]
		}
	}
	for i, u := range rpost {
		v.RLabels[i] = t.Nodes[u].Label
		v.Rml[i] = rank[leafNode[u]]
		if p := t.Nodes[u].Parent; p == tree.None {
			v.RParent[i] = -1
		} else {
			v.RParent[i] = rank[p]
		}
	}
	fillKeyroots(v.Rml, v.RKeyroots, v.RKrByLml, sc.owner)

	copy(v.SortedLabels, v.Labels)
	slices.Sort(v.SortedLabels)
	return off
}

// fillKeyroots writes the keyroots of a decomposition given its lml array —
// the nodes no later postorder node shares a decomposition leaf with — in
// ascending postorder into kr, and the same set ordered by ascending lml into
// krByLml. len(kr) must equal the tree's leaf count; owner is scratch of at
// least len(lml) cells.
func fillKeyroots(lml, kr, krByLml, owner []int32) {
	n := len(lml)
	owner = owner[:n]
	clear(owner)
	k := len(kr)
	for i := n - 1; i >= 0; i-- {
		if owner[lml[i]] == 0 {
			owner[lml[i]] = int32(i) + 1
			k--
			kr[k] = int32(i)
		}
	}
	if k != 0 {
		panic("ted: keyroot count does not match leaf count")
	}
	// Every keyroot owns a distinct decomposition leaf, so walking the leaf
	// positions in ascending order lists the keyroots by ascending lml.
	for _, o := range owner {
		if o != 0 {
			krByLml[k] = o - 1
			k++
		}
	}
}
