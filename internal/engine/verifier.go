package engine

import (
	"treejoin/internal/sim"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// ArenaKey names the per-tree struct-of-arrays verification view in the
// corpus cache (ted.TreeView): the postorder label/lml arrays of both
// decompositions, keyroots in both orders, structural arrays, sorted labels,
// and strategy costs. τ-independent like every signature, so a warm corpus
// verifies any later join out of the same arenas.
const ArenaKey = "ted/arena"

// ViewFor returns the cached arena view of t, building and caching a
// single-tree view on a miss. A nil cache builds a fresh view. It is the
// per-candidate lookup of callers whose candidates are a small subset of the
// collection (a search verifies only what its filter let through), where
// resolving every tree's view up front, as ArenaFor does, would cost more
// than the verification.
func ViewFor(c *Cache, t *tree.Tree) *ted.TreeView {
	if v, ok := c.Lookup(ArenaKey, t); ok {
		return v.(*ted.TreeView)
	}
	v := ted.BuildViews([]*tree.Tree{t})[0]
	c.Store(ArenaKey, t, v)
	return v
}

// PrepFor is ViewFor under its pre-arena name. Kept for the perfbench
// module.
func PrepFor(c *Cache, t *tree.Tree) *ted.Prep { return ViewFor(c, t) }

// ArenaFor returns the arena views of the collection, in order, serving each
// tree from the cache and flattening the misses in one contiguous BuildViews
// batch (the arena's locality comes from batching; per-tree builds would
// scatter the blocks). A nil cache degrades to a plain batch build.
func ArenaFor(c *Cache, ts []*tree.Tree) []*ted.TreeView {
	if c == nil {
		return ted.BuildViews(ts)
	}
	out := make([]*ted.TreeView, len(ts))
	var missing []int
	for i, t := range ts {
		if v, ok := c.Lookup(ArenaKey, t); ok {
			out[i] = v.(*ted.TreeView)
		} else {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return out
	}
	mts := make([]*tree.Tree, len(missing))
	for k, i := range missing {
		mts[k] = ts[i]
	}
	built := ted.BuildViews(mts)
	for k, i := range missing {
		out[i] = built[k]
		c.Store(ArenaKey, ts[i], built[k])
	}
	return out
}

// arenaVerifier is one worker's batched arena verification context: the
// collection's views resolved once at construction (lock-free per candidate —
// a mutex-guarded cache lookup per pair would serialise the workers), plus
// the worker-private DP scratch that makes every VerifyPair allocation-free.
type arenaVerifier struct {
	views []*ted.TreeView
	s     *ted.VerifyScratch
	tc    *ted.Counters
}

func (v *arenaVerifier) VerifyPair(i, j, tau int) (int, bool) {
	return ted.DistanceBoundedView(v.views[i], v.views[j], tau, v.s, v.tc)
}

func (v *arenaVerifier) Close() {
	ted.ReleaseScratch(v.s)
	v.s = nil
}

// NewArenaVerifiers builds the default batched verifier factory over a fixed
// collection: arena views are resolved through the cache once, up front, and
// every minted verifier shares them, adding only a pooled per-worker scratch.
// tc, when non-nil, accumulates pruning and strategy counters across all
// workers; the engine folds them into the run's Stats.
func NewArenaVerifiers(ts []*tree.Tree, c *Cache, tc *ted.Counters) sim.BatchVerifierFactory {
	return ViewVerifiers(ArenaFor(c, ts), tc)
}

// ViewVerifiers is the batched verifier factory over already-resolved views:
// VerifyPair(i, j) decides views[i] against views[j].
func ViewVerifiers(views []*ted.TreeView, tc *ted.Counters) sim.BatchVerifierFactory {
	return func() sim.BatchVerifier {
		return &arenaVerifier{views: views, s: ted.AcquireScratch(), tc: tc}
	}
}
