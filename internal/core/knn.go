package core

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"treejoin/internal/engine"
	"treejoin/internal/sim"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// Bound-ordered k-nearest-neighbour search (an extension beyond the paper,
// whose PartSJ answers only thresholded queries). Every collection tree T
// gets the label lower bound
//
//	LB(T, Q) = max(|T|, |Q|) − Σ_label min(count_T(label), count_Q(label))
//
// from per-tree label histograms (a TED script must at least rename or
// delete every node of the larger tree that has no equally labelled partner,
// so TED ≥ LB; LB also dominates the size difference). The trees are
// counting-sorted by bound and visited in that order in one pass: the k
// lowest-bound trees are verified to their exact distances (threshold
// 2·LB+1, doubled until the verifier succeeds), which fixes a current k-th
// distance D; every later tree is verified at threshold D, which only
// shrinks, and the scan stops at the first tree whose bound exceeds D —
// bounds only grow along the order, so no later tree can be closer. No
// per-threshold index is built.
//
// The answer is exact and deterministic whatever the worker count: a tree
// the pass skips or rejects has distance > D ≥ the final k-th distance, and
// a tree at distance ≤ the final k-th distance — ties included, since a
// bound equal to D is verified, not skipped — is always verified at a
// threshold it meets, so it enters the candidate set with its exact
// distance. The result is the k smallest (Dist, Pos) among those, a set
// that does not depend on which worker verified what, or when.

// labelCount is one run of a tree's sorted label multiset.
type labelCount struct{ label, count int32 }

// knnTrees is a searcher's τ-independent per-tree state, built once from the
// collection's arena views: sizes and label histograms (every tree's runs
// back to back in one block).
type knnTrees struct {
	views []*ted.TreeView
	sizes []int32
	hist  []labelCount
	off   []int32 // tree i's runs are hist[off[i]:off[i+1]]
}

func newKNNTrees(ts []*tree.Tree, cache *engine.Cache) *knnTrees {
	views := engine.ArenaFor(cache, ts)
	kt := &knnTrees{
		views: views,
		sizes: make([]int32, len(views)),
		off:   make([]int32, len(views)+1),
	}
	for i, v := range views {
		kt.sizes[i] = int32(v.Size())
		for j, l := range v.SortedLabels {
			if j == 0 || l != v.SortedLabels[j-1] {
				kt.hist = append(kt.hist, labelCount{label: l})
			}
			kt.hist[len(kt.hist)-1].count++
		}
		kt.off[i+1] = int32(len(kt.hist))
	}
	return kt
}

// knnBuf holds a query's collection-sized scratch: per-tree bounds, the
// bound order, the counting-sort buckets, and the query's dense label
// counts. Pooled, so a warm query allocates independently of the
// collection size.
type knnBuf struct {
	bounds, order, starts, qc []int32
}

var knnBufPool = sync.Pool{New: func() any { return new(knnBuf) }}

// knnRun is one query's bound-ordered search state.
type knnRun struct {
	x       *KNN
	trees   *knnTrees
	q       *tree.Tree
	qv      *ted.TreeView // nil under a custom verifier
	verify  sim.Verifier  // custom verifier, or nil for the arena kernel
	workers int

	bounds, order []int32

	mu   sync.Mutex
	best []Match      // the current k nearest, sorted by (Dist, Pos) after phase one
	kth  atomic.Int64 // best[k-1].Dist, read lock-free by the scan
}

// NearestAcross returns the k trees of x's collection closest to q by TED,
// ordered by (Dist, Pos), by the bound-ordered scan above; workers
// goroutines verify (values below 1 mean GOMAXPROCS). The custom verifier
// of x's options, if any, replaces the arena kernel. Fewer than k matches
// come back only when the collection holds fewer than k trees. Cancellation
// stops every worker promptly and returns ctx's error with nil matches.
func NearestAcross(ctx context.Context, x *KNN, q *tree.Tree, k, workers int) ([]Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := x.Len()
	if k <= 0 || n == 0 {
		return nil, nil
	}
	k = min(k, n)
	r := &knnRun{
		x:       x,
		trees:   x.knnTrees(),
		q:       q,
		verify:  x.opts.Verifier,
		workers: sim.NormalizeWorkers(workers),
		best:    make([]Match, k),
	}
	if r.verify == nil {
		r.qv = ted.BuildViews([]*tree.Tree{q})[0]
	}
	buf := knnBufPool.Get().(*knnBuf)
	defer knnBufPool.Put(buf)
	r.sortByBound(buf, n)

	// Exact distances of the k lowest-bound trees.
	r.forEach(0, k, func(s *ted.VerifyScratch, j int) bool {
		f := r.order[j]
		most := int(r.trees.sizes[f]) + q.Size() // TED never exceeds |T|+|Q|
		tau := min(2*int(r.bounds[f])+1, most)
		for {
			if ctx.Err() != nil {
				return false
			}
			d, ok := r.verifyAt(s, f, tau)
			if ok || tau >= most {
				r.best[j] = Match{Pos: int(f), Dist: d}
				return true
			}
			tau = min(2*tau, most)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	slices.SortFunc(r.best, compareMatch)
	r.kth.Store(int64(r.best[k-1].Dist))

	// The rest in bound order, each at the current k-th distance, up to the
	// first bound above it.
	end := n
	if kth := int(r.kth.Load()); kth < len(buf.starts) {
		end = int(buf.starts[kth])
	}
	r.forEach(k, end, func(s *ted.VerifyScratch, j int) bool {
		f := r.order[j]
		kth := int(r.kth.Load())
		if int(r.bounds[f]) > kth || ctx.Err() != nil {
			return false
		}
		if d, ok := r.verifyAt(s, f, kth); ok {
			r.offer(Match{Pos: int(f), Dist: d})
		}
		return true
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.best, nil
}

// sortByBound fills r.bounds with every tree's label lower bound and r.order
// with the tree indexes counting-sorted by (bound, index), and leaves
// buf.starts[b] = the number of trees with bound ≤ b.
func (r *knnRun) sortByBound(buf *knnBuf, n int) {
	qs := int32(r.q.Size())
	var maxLabel int32 = -1
	for i := range r.q.Nodes {
		maxLabel = max(maxLabel, r.q.Nodes[i].Label)
	}
	qc := slices.Grow(buf.qc[:0], int(maxLabel)+1)[:maxLabel+1]
	clear(qc)
	for i := range r.q.Nodes {
		qc[r.q.Nodes[i].Label]++
	}
	buf.qc = qc
	bounds := slices.Grow(buf.bounds[:0], n)[:n]
	maxB := int32(0)
	kt := r.trees
	for i, size := range kt.sizes {
		common := int32(0)
		for _, lc := range kt.hist[kt.off[i]:kt.off[i+1]] {
			if int(lc.label) < len(qc) {
				common += min(lc.count, qc[lc.label])
			}
		}
		b := max(size, qs) - common
		bounds[i] = b
		maxB = max(maxB, b)
	}
	starts := slices.Grow(buf.starts[:0], int(maxB)+1)[:maxB+1]
	clear(starts)
	for _, b := range bounds {
		starts[b]++
	}
	sum := int32(0)
	for b, c := range starts {
		starts[b] = sum // first order slot of bucket b
		sum += c
	}
	order := slices.Grow(buf.order[:0], n)[:n]
	for f, b := range bounds {
		order[starts[b]] = int32(f)
		starts[b]++ // ends as bucket b's end: the count of bounds ≤ b
	}
	buf.bounds, buf.order, buf.starts = bounds, order, starts
	r.bounds, r.order = bounds, order
}

// forEach runs fn(s, j) for j in [lo, hi) on up to r.workers goroutines,
// the caller's included, each with its own verify scratch; a worker stops
// at its first false. It returns once every worker has.
func (r *knnRun) forEach(lo, hi int, fn func(s *ted.VerifyScratch, j int) bool) {
	if hi <= lo {
		return
	}
	var next atomic.Int64
	next.Store(int64(lo))
	work := func() {
		s := ted.AcquireScratch()
		defer ted.ReleaseScratch(s)
		for {
			j := int(next.Add(1) - 1)
			if j >= hi || !fn(s, j) {
				return
			}
		}
	}
	var wg sync.WaitGroup
	helpers := min(r.workers, hi-lo) - 1
	wg.Add(helpers)
	for range helpers {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// verifyAt decides TED(tree f, q) ≤ tau under the tri-state verifier
// contract (exact distance on success).
func (r *knnRun) verifyAt(s *ted.VerifyScratch, f int32, tau int) (int, bool) {
	if r.verify != nil {
		return r.verify(r.x.ts[f], r.q, tau)
	}
	return ted.DistanceBoundedView(r.trees.views[f], r.qv, tau, s, nil)
}

// compareMatch orders matches by (Dist, Pos).
func compareMatch(a, b Match) int {
	return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Pos, b.Pos))
}

// offer inserts m into the current k nearest when it ranks before the
// k-th, dropping the k-th.
func (r *knnRun) offer(m Match) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := len(r.best) - 1
	if compareMatch(m, r.best[i]) >= 0 {
		return
	}
	for ; i > 0 && compareMatch(m, r.best[i-1]) < 0; i-- {
		r.best[i] = r.best[i-1]
	}
	r.best[i] = m
	r.kth.Store(int64(r.best[len(r.best)-1].Dist))
}
