package core

import (
	"context"
	"sort"
	"sync"

	"treejoin/internal/engine"
	"treejoin/internal/sim"
	"treejoin/internal/tree"
)

// Threshold-free queries (an extension beyond the paper): the similarity
// join and search take a TED threshold τ, but two common workloads do not
// know one up front — "find the k most similar pairs in the collection" and
// "find the k nearest neighbours of this query". KNN is a bound-ordered scan
// with no per-threshold state (knn.go). TopK reduces to the thresholded join
// by an expanding-threshold search: a run at threshold τ is complete for
// distances ≤ τ, so as soon as it produces k hits the k best of them are the
// global answer (anything unseen is farther than τ, hence farther than the
// k-th hit). Thresholds grow geometrically, so the total work is dominated
// by the last round — the round a clairvoyant caller with the right τ would
// have paid for anyway.

// TopK returns the k closest pairs of the collection by TED, ties broken by
// (Dist, I, J). It runs PartSJ self-joins at geometrically increasing
// thresholds, starting from opts.Tau (minimum 1), until k pairs are within
// reach or every pair has been reported. Fewer than k pairs are returned
// only when the collection has fewer than k pairs overall. It panics on
// invalid options — the legacy contract; corpus-backed callers use TopKCtx.
func TopK(ts []*tree.Tree, k int, opts Options) []sim.Pair {
	if err := opts.validate(); err != nil {
		panic(err)
	}
	pairs, err := TopKCtx(context.Background(), ts, k, opts, 0, nil)
	if err != nil {
		panic(err)
	}
	return pairs
}

// TopKCtx is TopK under a context and an artifact cache: each expanding
// round runs the cancellable engine join (sharded when shards > 1), drawing
// per-tree signatures from cache. On cancellation it returns ctx's error
// together with the pairs the aborted round had found — honest partial
// output, not necessarily the global top k. Options must be valid.
func TopKCtx(ctx context.Context, ts []*tree.Tree, k int, opts Options, shards int, cache *engine.Cache) ([]sim.Pair, error) {
	if k <= 0 || len(ts) < 2 {
		return nil, ctx.Err()
	}
	if all := len(ts) * (len(ts) - 1) / 2; k > all {
		k = all
	}
	tauCap := sim.TauCap(ts)
	tau := min(max(opts.Tau, 1), tauCap)
	for {
		o := opts
		o.Tau = tau
		job := o.Job(shards, nil)
		job.Cache = cache
		var pairs []sim.Pair
		_, err := job.StreamSelf(ctx, ts, func(p sim.Pair) bool {
			pairs = append(pairs, p)
			return true
		})
		if err != nil {
			sortByDist(pairs)
			if len(pairs) > k {
				pairs = pairs[:k]
			}
			return pairs, err
		}
		if len(pairs) >= k || tau >= tauCap {
			sortByDist(pairs)
			if len(pairs) > k {
				pairs = pairs[:k]
			}
			return pairs, nil
		}
		tau *= 2
		if tau > tauCap {
			tau = tauCap
		}
	}
}

// sortByDist orders pairs by (Dist, I, J).
func sortByDist(ps []sim.Pair) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].Dist != ps[b].Dist {
			return ps[a].Dist < ps[b].Dist
		}
		if ps[a].I != ps[b].I {
			return ps[a].I < ps[b].I
		}
		return ps[a].J < ps[b].J
	})
}

// DefaultIndexCacheCap is the default bound on the per-threshold index cache
// behind a corpus's Search (IndexAt): one full PartSJ index is retained per
// cached threshold, so the cap trades rebuild time against memory. KNN
// builds no index and never touches the cache. A search workload that
// cycles through more distinct thresholds than the cap rebuilds an index on
// every query, which is the caveat to weigh when lowering it via
// WithIndexCacheCap.
const DefaultIndexCacheCap = 16

// indexLRU is a small least-recently-used cache of per-threshold search
// indexes. Capacities are tiny (single digits), so recency is tracked with a
// plain slice — the O(cap) bookkeeping is noise next to an index build.
type indexLRU struct {
	mu        sync.Mutex
	cap       int
	order     []int // thresholds, most recently used first
	m         map[int]*Index
	evictions int64
}

func newIndexLRU(capacity int) *indexLRU {
	if capacity < 1 {
		capacity = 1
	}
	return &indexLRU{cap: capacity, m: make(map[int]*Index)}
}

// get returns the cached index for tau, or nil; a hit refreshes recency.
func (l *indexLRU) get(tau int) *Index {
	l.mu.Lock()
	defer l.mu.Unlock()
	ix := l.m[tau]
	if ix != nil {
		l.touch(tau)
	}
	return ix
}

// put inserts the index for tau, evicting the least recently used entry when
// the cache is full.
func (l *indexLRU) put(tau int, ix *Index) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.m[tau]; ok {
		l.m[tau] = ix
		l.touch(tau)
		return
	}
	if len(l.order) >= l.cap {
		last := l.order[len(l.order)-1]
		l.order = l.order[:len(l.order)-1]
		delete(l.m, last)
		l.evictions++
	}
	l.m[tau] = ix
	l.order = append([]int{tau}, l.order...)
}

// touch moves tau to the front of the recency order (must hold l.mu).
func (l *indexLRU) touch(tau int) {
	for i, v := range l.order {
		if v == tau {
			copy(l.order[1:i+1], l.order[:i])
			l.order[0] = tau
			return
		}
	}
}

// KNN answers k-nearest-neighbour queries over a fixed collection by the
// bound-ordered scan of NearestAcross: the collection's arena views and
// label histograms are resolved once, on the first query, and every query
// is one verification pass over them. KNN also hosts the per-threshold
// Search indexes of a corpus (IndexAt), a small LRU that KNN queries
// themselves never use. Nearest and IndexAt are safe for concurrent use.
type KNN struct {
	ts        []*tree.Tree
	opts      Options
	cache     *indexLRU
	artifacts *engine.Cache

	treesOnce sync.Once
	trees     *knnTrees
}

// NewKNN prepares a k-NN searcher over ts. opts.Verifier and opts.Workers
// configure the verification pass; the remaining options configure the
// IndexAt indexes as in NewIndex. It panics on invalid options — the legacy
// contract; corpus-backed callers use NewKNNCached.
func NewKNN(ts []*tree.Tree, opts Options) *KNN {
	if err := opts.validate(); err != nil {
		panic(err)
	}
	return NewKNNCached(ts, opts, nil, DefaultIndexCacheCap)
}

// NewKNNCached is NewKNN drawing per-tree artifacts from cache (nil: compute
// locally) and bounding the per-threshold index cache at capacity (≥ 1;
// values below 1 are raised to 1). Options must be valid.
func NewKNNCached(ts []*tree.Tree, opts Options, cache *engine.Cache, capacity int) *KNN {
	return &KNN{ts: ts, opts: opts, cache: newIndexLRU(capacity), artifacts: cache}
}

// knnTrees returns the collection's bound-ordering state, building it on
// first use.
func (x *KNN) knnTrees() *knnTrees {
	x.treesOnce.Do(func() { x.trees = newKNNTrees(x.ts, x.artifacts) })
	return x.trees
}

// Len returns the collection size.
func (x *KNN) Len() int { return len(x.ts) }

// Tree returns the i-th collection tree.
func (x *KNN) Tree(i int) *tree.Tree { return x.ts[i] }

// CachedIndexes returns the number of per-threshold indexes currently
// retained (≤ the configured capacity).
func (x *KNN) CachedIndexes() int {
	x.cache.mu.Lock()
	defer x.cache.mu.Unlock()
	return len(x.cache.m)
}

// Evictions returns how many cached indexes the LRU bound has discarded.
func (x *KNN) Evictions() int64 {
	x.cache.mu.Lock()
	defer x.cache.mu.Unlock()
	return x.cache.evictions
}

// IndexAt returns the search index for threshold tau, building and caching
// it on first use. Two concurrent callers may both build the same index; one
// build wins the cache slot and the other is garbage — acceptable for an
// operation whose callers are already paying an index build.
func (x *KNN) IndexAt(tau int) *Index {
	if ix := x.cache.get(tau); ix != nil {
		return ix
	}
	o := x.opts
	o.Tau = tau
	ix := NewIndexCached(x.ts, o, x.artifacts)
	x.cache.put(tau, ix)
	return ix
}

// Nearest returns the k collection trees closest to q by TED, ordered by
// (Dist, Pos). Fewer than k matches are returned only when the collection
// holds fewer than k trees.
func (x *KNN) Nearest(q *tree.Tree, k int) []Match {
	ms, _ := x.NearestCtx(context.Background(), q, k)
	return ms
}

// NearestCtx is Nearest under a context: cancellation stops the
// verification pass promptly and returns ctx's error with nil matches.
func (x *KNN) NearestCtx(ctx context.Context, q *tree.Tree, k int) ([]Match, error) {
	return NearestAcross(ctx, x, q, k, x.opts.Workers)
}
