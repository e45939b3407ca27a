package core

import (
	"cmp"
	"context"
	"slices"

	"treejoin/internal/engine"
	"treejoin/internal/lcrs"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// Index is a static similarity-search index over a fixed collection: build
// once, then Search reports every collection tree within TED τ of a query.
// It is the similarity-search counterpart of the join ([13, 16, 27] study
// this query; PartSJ's subgraph index answers it directly): every collection
// tree is δ-partitioned at build time, and a query is probed against the
// two-layer index exactly like the current tree in Algorithm 1 — Lemma 2
// applies with the collection tree as the partitioned side, so no size
// relationship between query and data is required.
//
// Search is safe for concurrent use: probing state is per-call, and the
// index is immutable after NewIndex.
type Index struct {
	opts   Options
	ts     []*tree.Tree
	cache  *engine.Cache
	parts  []*Partition
	ix     *invIndex
	smalls []int
}

// Match is one search hit: collection position and exact distance.
type Match struct {
	Pos  int
	Dist int
}

// NewIndex partitions and indexes every tree of ts for searches with
// threshold opts.Tau. RandomPartition and Workers are ignored; the verifier
// is used by Search. It panics on invalid options — the legacy contract;
// corpus-backed callers validate first and use NewIndexCached.
func NewIndex(ts []*tree.Tree, opts Options) *Index {
	if err := opts.validate(); err != nil {
		panic(err)
	}
	return NewIndexCached(ts, opts, nil)
}

// NewIndexCached is NewIndex drawing per-tree artifacts (binary views and
// δ-partitions) from cache, so an index built over a corpus's trees reuses
// the signatures its joins already computed — and later indexes at other
// thresholds reuse at least the views. A nil cache computes everything
// locally. Options must be valid.
func NewIndexCached(ts []*tree.Tree, opts Options, cache *engine.Cache) *Index {
	ix := &Index{
		opts:  opts,
		ts:    ts,
		cache: cache,
		parts: make([]*Partition, len(ts)),
		ix:    newInvIndex(opts.Tau, opts.Position),
	}
	delta := opts.delta()
	partKey := partitionCacheKey(delta)
	for i, t := range ts {
		if t.Size() < delta {
			ix.smalls = append(ix.smalls, i)
			continue
		}
		p := cachedPartition(cache, t, nil, partKey, delta)
		ix.parts[i] = p
		ix.ix.insert(i, p)
	}
	return ix
}

// Len returns the collection size.
func (x *Index) Len() int { return len(x.ts) }

// Tree returns the i-th collection tree.
func (x *Index) Tree(i int) *tree.Tree { return x.ts[i] }

// Tau returns the threshold the index was built for.
func (x *Index) Tau() int { return x.opts.Tau }

// Search returns the collection trees within TED τ of q, in ascending
// collection order.
func (x *Index) Search(q *tree.Tree) []Match {
	ms, _ := x.SearchCtx(context.Background(), q)
	return ms
}

// searchCtxStride bounds how many probe nodes (or verifications) run between
// context checks.
const searchCtxStride = 64

// SearchCtx is Search under a context: cancellation aborts the probe and
// verification loops promptly and returns ctx's error with nil matches.
func (x *Index) SearchCtx(ctx context.Context, q *tree.Tree) ([]Match, error) {
	b := lcrs.Build(q)
	sz := q.Size()
	tau := x.opts.Tau
	seen := make(map[int32]bool)
	var cands []int
	for _, i := range x.smalls {
		d := x.ts[i].Size() - sz
		if d < 0 {
			d = -d
		}
		if d <= tau {
			cands = append(cands, i)
			seen[int32(i)] = true
		}
	}
	minSize := sz - tau
	if minSize < 1 {
		minSize = 1
	}
	var sc matchScratch
	for k, n := range b.Order {
		if k%searchCtxStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		x.ix.probe(b, n, minSize, sz+tau, func(e entry) {
			if seen[e.tree] {
				return
			}
			if matches(x.parts[e.tree], e.comp, b, n, &sc) {
				seen[e.tree] = true
				cands = append(cands, int(e.tree))
			}
		})
	}
	verify := x.opts.Verifier
	if verify == nil && len(cands) > 0 {
		// τ-banded bounded TED over arena views: each candidate's view is
		// looked up in the index's artifact cache as it is verified (a
		// search touches only what its filter let through); the query's
		// view is built once per call and never stored, so query traffic
		// cannot pin the cache.
		qv := ted.BuildViews([]*tree.Tree{q})[0]
		s := ted.AcquireScratch()
		defer ted.ReleaseScratch(s)
		verify = func(t1, _ *tree.Tree, tau int) (int, bool) {
			return ted.DistanceBoundedView(engine.ViewFor(x.cache, t1), qv, tau, s, nil)
		}
	}
	var out []Match
	for _, i := range cands {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if d, ok := verify(x.ts[i], q, tau); ok {
			out = append(out, Match{Pos: i, Dist: d})
		}
	}
	slices.SortFunc(out, func(a, b Match) int { return cmp.Compare(a.Pos, b.Pos) })
	return out, nil
}
