// Package subtree implements similarity search *inside* one large tree: find
// the subtrees of a data tree within TED τ of a query tree (the problem of
// Cohen [7, 8] and of TASM [3] in the paper's related work — the paper
// distinguishes its collection-join setting from this one, so a library
// covering both rounds out the toolset).
//
// The search considers every node of the data tree as a candidate subtree
// root, prunes candidates with the size bound (a subtree whose node count
// differs from the query's by more than τ cannot match) and the τ-banded
// preorder/postorder string lower bounds, and verifies survivors with the
// bounded TED. Traversal sequences of every subtree are materialised in one
// pass over the data tree — the preorder (postorder) sequence of a subtree
// is a contiguous slice of the whole tree's preorder (postorder) sequence,
// so the screen costs no extra memory beyond the two whole-tree sequences.
package subtree

import (
	"sort"

	"treejoin/internal/strdist"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// Match is one hit: the data-tree node rooting the matching subtree and the
// exact TED between that subtree and the query.
type Match struct {
	Root int32
	Dist int
}

// Search returns every subtree of data within TED tau of query, in ascending
// root node id order. data and query must share one label table.
func Search(data, query *tree.Tree, tau int) []Match {
	if data.Labels != query.Labels {
		panic("subtree: trees must share a label table")
	}
	if tau < 0 {
		return nil
	}
	qSize := query.Size()
	// No subtree is further than |data|+|query| from the query (see
	// sim.TauCap); clamping keeps qSize+tau from wrapping.
	tau = min(tau, data.Size()+qSize)
	qView := ted.BuildViews([]*tree.Tree{query})[0]
	s := ted.AcquireScratch()
	defer ted.ReleaseScratch(s)
	qPre := tree.LabelSeq(query, tree.Preorder(query))
	qPost := tree.LabelSeq(query, tree.Postorder(query))

	// Whole-tree sequences; each subtree owns a contiguous slice of both.
	pre := tree.Preorder(data)
	post := tree.Postorder(data)
	preSeq := tree.LabelSeq(data, pre)
	postSeq := tree.LabelSeq(data, post)
	preRank := make([]int32, data.Size())
	for i, n := range pre {
		preRank[n] = int32(i)
	}
	postRank := make([]int32, data.Size())
	for i, n := range post {
		postRank[n] = int32(i)
	}
	sizes := tree.SubtreeSizes(data)

	var out []Match
	for id := range data.Nodes {
		n := int32(id)
		sz := int(sizes[n])
		if sz < qSize-tau || sz > qSize+tau {
			continue
		}
		// Subtree n occupies preorder [preRank, preRank+sz) and postorder
		// [postRank−sz+1, postRank+1].
		p := preSeq[preRank[n] : int(preRank[n])+sz]
		if strdist.Bounded(p, qPre, tau) > tau {
			continue
		}
		q := postSeq[int(postRank[n])-sz+1 : postRank[n]+1]
		if strdist.Bounded(q, qPost, tau) > tau {
			continue
		}
		v := ted.BuildViews([]*tree.Tree{tree.SubtreeAt(data, n)})[0]
		if d, ok := ted.DistanceBoundedView(v, qView, tau, s, nil); ok {
			out = append(out, Match{Root: n, Dist: d})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Root < out[b].Root })
	return out
}

// SearchBest returns the k subtrees of data closest to query by TED, ordered
// by (Dist, Root) — the top-k approximate subtree matching query of TASM
// [3]. It runs Search at geometrically increasing thresholds until k hits
// are in reach; fewer than k only when data has fewer than k nodes.
func SearchBest(data, query *tree.Tree, k int) []Match {
	if k <= 0 {
		return nil
	}
	if k > data.Size() {
		k = data.Size()
	}
	tauCap := data.Size() + query.Size()
	tau := 1
	for {
		ms := Search(data, query, tau)
		if len(ms) >= k || tau >= tauCap {
			sort.Slice(ms, func(a, b int) bool {
				if ms[a].Dist != ms[b].Dist {
					return ms[a].Dist < ms[b].Dist
				}
				return ms[a].Root < ms[b].Root
			})
			if len(ms) > k {
				ms = ms[:k]
			}
			return ms
		}
		tau *= 2
		if tau > tauCap {
			tau = tauCap
		}
	}
}
