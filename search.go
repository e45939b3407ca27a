package treejoin

import (
	"fmt"

	"treejoin/internal/core"
	"treejoin/internal/subtree"
	"treejoin/internal/tree"
)

// Match is one similarity-search hit: the collection position of the
// matching tree and its exact distance to the query.
type Match = core.Match

// Index is a static similarity-search index: it partitions and indexes a
// fixed collection once, after which Search reports every collection tree
// within TED tau of a query tree. Queries of any size are supported and
// Search is safe for concurrent use.
type Index struct {
	inner *core.Index
}

// NewIndex builds a search index over ts for threshold tau. All trees (and
// later queries) must share one LabelTable.
//
// Deprecated: use Corpus.Search, which builds and caches per-threshold
// indexes behind an LRU and returns errors instead of panicking. This
// wrapper remains for compatibility and keeps the legacy panicking contract.
func NewIndex(ts []*Tree, tau int, opts ...Option) *Index {
	if tau < 0 {
		panic(fmt.Sprintf("treejoin: negative threshold %d", tau))
	}
	c := buildConfig(opts)
	return &Index{inner: core.NewIndex(ts, c.coreOptions(tau))}
}

// Search returns the indexed trees within the index threshold of q, in
// ascending collection order.
func (x *Index) Search(q *Tree) []Match { return x.inner.Search(q) }

// Len returns the collection size.
func (x *Index) Len() int { return x.inner.Len() }

// Tree returns the i-th collection tree.
func (x *Index) Tree(i int) *Tree { return x.inner.Tree(i) }

// TopK returns the k closest pairs of the collection by TED, ordered by
// (Dist, I, J) — the threshold-free variant of SelfJoin for workloads that
// want "the k most similar pairs" rather than "all pairs within τ". It runs
// PartSJ at geometrically increasing thresholds until k pairs are in reach;
// fewer than k pairs come back only when the collection has fewer than k
// pairs in total. All trees must share one LabelTable.
//
// Deprecated: use Corpus.TopK, which is cancellable and reuses cached
// signatures across the expanding rounds and with every other corpus query.
func TopK(ts []*Tree, k int, opts ...Option) []Pair {
	c := buildConfig(opts)
	return core.TopK(ts, k, c.coreOptions(0))
}

// KNN answers k-nearest-neighbour queries over a fixed collection: Nearest
// returns the k collection trees closest to a query by TED, with no distance
// threshold required. Internally it makes one bound-ordered verification
// pass over the collection (see Corpus.KNN) and builds no index. Nearest is
// safe for concurrent use.
type KNN struct {
	inner *core.KNN
}

// NewKNN prepares a k-NN searcher over ts. All trees (and later queries)
// must share one LabelTable.
//
// Deprecated: use Corpus.KNN, which shares the corpus's signature cache
// (the arena views this searcher builds for itself) with every other query.
func NewKNN(ts []*Tree, opts ...Option) *KNN {
	c := buildConfig(opts)
	return &KNN{inner: core.NewKNNCached(ts, c.coreOptions(0), nil, 1)}
}

// Nearest returns the k collection trees closest to q, ordered by
// (Dist, Pos). Fewer than k matches are returned only when the collection
// holds fewer than k trees.
func (x *KNN) Nearest(q *Tree, k int) []Match { return x.inner.Nearest(q, k) }

// Len returns the collection size.
func (x *KNN) Len() int { return x.inner.Len() }

// Tree returns the i-th collection tree.
func (x *KNN) Tree(i int) *Tree { return x.inner.Tree(i) }

// SubtreeMatch is one subtree-search hit: the data-tree node rooting the
// matching subtree and its exact TED to the query.
type SubtreeMatch = subtree.Match

// SubtreeSearch finds the subtrees of one large data tree within TED tau of
// query, in ascending root node order — similarity search *inside* a tree
// (the setting of the paper's related work on subtree similarity search),
// complementing the collection-level joins. data and query must share one
// LabelTable.
func SubtreeSearch(data, query *Tree, tau int) []SubtreeMatch {
	return subtree.Search(data, query, tau)
}

// SubtreeSearchBest returns the k subtrees of data closest to query by TED,
// ordered by (Dist, Root) — top-k approximate subtree matching, no
// threshold required.
func SubtreeSearchBest(data, query *Tree, k int) []SubtreeMatch {
	return subtree.SearchBest(data, query, k)
}

// SubtreeAt extracts the subtree of t rooted at node n as a standalone tree
// sharing t's label table.
func SubtreeAt(t *Tree, n int32) *Tree { return tree.SubtreeAt(t, n) }
