// Package engine is the composable join pipeline every exact similarity-join
// method in this module runs on. The paper frames PartSJ and its baselines
// alike as one filter-then-verify loop over a size-ordered collection; this
// package implements that loop exactly once:
//
//	CandidateSource ──► PairFilter chain ──► parallel TED verification
//
// A CandidateSource enumerates the pairs its own pruning cannot rule out (the
// PartSJ inverted subgraph index, or the sorted nested loop with the size
// window). A PairFilter is a cheap pair-level test backed by a sound TED
// lower bound — pruning a pair must prove its distance exceeds τ — so any
// chain of filters in front of any source leaves the result set untouched.
// Surviving candidates are verified with the exact bounded TED.
//
// The engine owns everything the five former copies of the loop implemented
// divergently: self joins and cross joins, sequential and parallel candidate
// generation (sources decompose into independent tasks executed on a worker
// pool), parallel verification, per-stage statistics attribution, and
// canonical result ordering. Adding a filter, a backend, or a parallelisation
// strategy means writing one stage, not a sixth loop; see DESIGN.md.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"treejoin/internal/sim"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// Collection is the engine's view of the trees being joined: the combined
// collection (A followed by B for cross joins), the TED threshold, and the
// ascending-size processing order of Algorithm 1. It is immutable during a
// run and shared by all tasks.
type Collection struct {
	// Trees is the combined collection. For a cross join it is A ++ B; for a
	// self join it is the collection itself.
	Trees []*tree.Tree
	// Split is len(A) for cross joins and -1 for self joins. In a cross join
	// only pairs straddling the boundary are candidates.
	Split int
	// Tau is the TED threshold τ ≥ 0.
	Tau int
	// Order holds tree indices sorted by ascending size (ties by index).
	Order []int
	// Workers is the worker-pool width the job runs with (≥ 1, normalized
	// from Job.Workers: unset or negative counts become GOMAXPROCS).
	// Sources that can decompose candidate generation cheaply use it as
	// their default task count.
	Workers int
	// PrefixC carries Job.PrefixC: the token-index source's prefix-length
	// multiplier override (0 or values at most the tokenizer's Slack leave
	// the default Slack()·τ+1 prefix).
	PrefixC int

	ctx       context.Context
	cache     *Cache
	sizes     []int // sizes in Order order, for binary-searching the window
	counters  *ted.Counters
	dynTokens func(Tokenizer) *TokenSnap
}

// DynTokenSnap resolves the run's persistent token-index snapshot for tz, or
// nil when the run is not backed by a dynamic corpus (or the corpus chose
// not to materialise one). Sources must still verify the snapshot covers the
// collection before probing it.
func (c *Collection) DynTokenSnap(tz Tokenizer) *TokenSnap {
	if c.dynTokens == nil {
		return nil
	}
	return c.dynTokens(tz)
}

// Cancelled reports whether the run's context has been cancelled — by the
// caller's deadline or cancel, or by a streaming consumer that stopped
// iterating. Sources check it between probes and abandon their loops early;
// the engine then returns whatever statistics accumulated.
func (c *Collection) Cancelled() bool { return c.ctx.Err() != nil }

// Cache returns the run's artifact cache. A corpus-backed run shares the
// corpus cache across joins; a one-shot run gets a private cache that at
// least lets concurrent tasks of the same join share per-tree artifacts.
func (c *Collection) Cache() *Cache { return c.cache }

// Cross reports whether the collection is the union of two sides.
func (c *Collection) Cross() bool { return c.Split >= 0 }

// SameSide reports whether combined indices i and j belong to the same side
// of a cross join (always false for self joins, where every pair qualifies).
func (c *Collection) SameSide(i, j int) bool {
	if !c.Cross() {
		return false
	}
	return (i < c.Split) == (j < c.Split)
}

// WindowStart returns the first position in Order whose tree size is at
// least sz − τ: the start of the size window a probe of size sz must scan.
func (c *Collection) WindowStart(sz int) int {
	min := sz - c.Tau
	return sort.SearchInts(c.sizes, min)
}

func newCollection(ctx context.Context, ts []*tree.Tree, split, tau, workers int, cache *Cache, dynTokens func(Tokenizer) *TokenSnap) *Collection {
	workers = sim.NormalizeWorkers(workers)
	if cache == nil {
		cache = NewCache()
	}
	c := &Collection{Trees: ts, Split: split, Tau: tau, Workers: workers, ctx: ctx, cache: cache, counters: new(ted.Counters), dynTokens: dynTokens}
	c.Order = sim.SizeOrder(ts)
	c.sizes = make([]int, len(c.Order))
	for p, ti := range c.Order {
		c.sizes[p] = ts[ti].Size()
	}
	return c
}

// NewProbeCollection builds a Collection view over ts for calibration
// probes, outside any job: same size ordering, windowing, and artifact-cache
// routing as a real run's collection (so a probe's signature computations
// warm the same cache the run will hit), sized for a single caller. The plan
// package prepares individual filters against it and times their predicates
// over sampled window pairs.
func NewProbeCollection(ctx context.Context, ts []*tree.Tree, tau int, cache *Cache) *Collection {
	return newCollection(ctx, ts, -1, tau, 1, cache, nil)
}

// PairFilter is one pipeline stage: a cheap pair-level test that may prune a
// pair only when a sound TED lower bound proves its distance exceeds τ.
// Prepare runs once per join over the combined collection and returns the
// predicate; the predicate must be safe for concurrent use (the engine calls
// it from every candidate-generation task).
type PairFilter interface {
	// Name labels the stage in Stats.Stages.
	Name() string
	// Prepare precomputes per-tree state and returns the pair predicate:
	// keep(i, j) reports whether the pair may be within c.Tau.
	Prepare(c *Collection) func(i, j int) bool
}

// funcFilter adapts a name and prepare function to the PairFilter interface.
type funcFilter struct {
	name    string
	prepare func(c *Collection) func(i, j int) bool
}

func (f funcFilter) Name() string                              { return f.name }
func (f funcFilter) Prepare(c *Collection) func(i, j int) bool { return f.prepare(c) }

// NewFilter builds a PairFilter from a name and a prepare function.
func NewFilter(name string, prepare func(c *Collection) func(i, j int) bool) PairFilter {
	return funcFilter{name: name, prepare: prepare}
}

// Task is one independent unit of candidate generation. Tasks run
// concurrently on the worker pool, each with its own Pipeline.
type Task func(px *Pipeline)

// CandidateSource enumerates the candidate pairs of a join.
type CandidateSource interface {
	// Name labels the source in diagnostics.
	Name() string
	// Tasks decomposes candidate generation into independent units. The
	// engine passes the job's shard count; shards ≤ 1 asks for the source's
	// natural decomposition (a single sequential task, or a cheap split
	// across c.Workers when the source has no shared state). Together the
	// tasks must offer every unordered candidate pair exactly once.
	Tasks(c *Collection, shards int) []Task
}

// emitter is the serialised result stream of one run: every verified pair —
// from any task's inline flush or from the final pool-wide verification pass
// — funnels through emit, which remaps cross-join indices, drops duplicates
// from overlapping shard tasks, and hands the pair to the consumer's sink. A
// sink that returns false stops the run: the emitter cancels the run context
// and sources abandon their loops.
type emitter struct {
	mu      sync.Mutex
	sink    sim.EmitFunc
	split   int             // ≥ 0: cross join, remap J to the B side
	seen    map[[2]int]bool // non-nil: dedup pairs from multi-task plans
	n       int64           // pairs delivered to the sink
	stopped bool
	cancel  context.CancelFunc
}

func (e *emitter) emit(p sim.Pair) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return false
	}
	if e.split >= 0 {
		// Combined A indices precede B indices, so Pair.I is the A element
		// already; J maps back to its per-collection position.
		p.J -= e.split
	}
	if e.seen != nil {
		k := [2]int{p.I, p.J}
		if e.seen[k] {
			return true // duplicate from an overlapping task; keep going
		}
		e.seen[k] = true
	}
	e.n++
	if !e.sink(p) {
		e.stopped = true
		e.cancel()
		return false
	}
	return true
}

// Pipeline is a task's private view of the filter chain and candidate sink.
// Screen runs the filters over a pair (with per-stage accounting); Emit
// records a surviving pair for verification; Offer combines the two. Sources
// that interleave their own pair-level work with the filters (PartSJ runs
// subgraph-match tests after the prefilters) call Screen and Emit separately
// so the chain prunes a pair before the source spends effort on it.
type Pipeline struct {
	c        *Collection
	preds    []func(i, j int) bool
	counts   []sim.StageStats
	cands    []sim.Candidate
	stats    sim.Stats
	screened uint64 // pairs screened so far, for cost sampling

	// Sequential jobs verify candidates in bounded chunks as they are
	// emitted (Algorithm 1's interleaving, generalised), streaming results
	// to the emitter with peak candidate memory O(flushAt) instead of
	// O(total candidates). Parallel jobs set flushAt = 0 and defer
	// everything to one pool-wide pass, where the bigger batch
	// load-balances better. The flush verifier is minted lazily from the
	// run's factory and persists across flushes (so its scratch stays warm
	// for the whole task); stream() closes it after the tasks finish.
	flushAt    int
	vfactory   sim.BatchVerifierFactory
	bv         sim.BatchVerifier
	em         *emitter
	inlineTime time.Duration
}

// Cancelled reports whether the run should stop: the caller cancelled its
// context or a streaming consumer stopped iterating. Sources check it
// between probes.
func (px *Pipeline) Cancelled() bool { return px.c.Cancelled() }

// flushCandidates verifies and drains the buffered candidates inline,
// streaming confirmed pairs to the emitter. The elapsed time is remembered so
// the engine can carve it back out of the source's candidate-generation clock
// (flushes happen inside the source's timed loop).
func (px *Pipeline) flushCandidates() {
	if len(px.cands) == 0 {
		return
	}
	start := time.Now()
	if px.bv == nil {
		px.bv = px.vfactory()
	}
	sim.VerifyStreamWith(px.c.ctx, px.cands, px.c.Tau, px.bv, &px.stats, px.em.emit)
	px.cands = px.cands[:0]
	px.inlineTime += time.Since(start)
}

// Collection returns the shared collection view.
func (px *Pipeline) Collection() *Collection { return px.c }

// Stats returns the task-local statistics sink; sources add their own
// counters (index probes, match tests, partition time) here. The engine
// merges all task sinks into the join's Stats.
func (px *Pipeline) Stats() *sim.Stats { return &px.stats }

// screenSampleMask selects every 64th screened pair of a task for per-stage
// cost timing: two clock reads per stage on 1/64 of the pairs is invisible
// in a profile, yet a paper-scale join samples thousands of calls per stage
// — plenty for the planner's per-pair cost estimate.
const screenSampleMask = 63

// Screen runs the filter chain over pair (i, j) and reports whether it
// survives every stage. Each pair must be screened at most once per join.
// Every 64th call per task additionally times each stage's predicate,
// feeding the sampled per-pair cost the plan package's chain ordering runs
// on (StageStats.SampledNs/Sampled).
func (px *Pipeline) Screen(i, j int) bool {
	sampled := px.screened&screenSampleMask == 0
	px.screened++
	if sampled {
		return px.screenTimed(i, j)
	}
	for k := range px.preds {
		px.counts[k].In++
		if !px.preds[k](i, j) {
			px.counts[k].Pruned++
			return false
		}
	}
	return true
}

// screenTimed is Screen's sampled path: identical screening, plus per-stage
// predicate timing.
func (px *Pipeline) screenTimed(i, j int) bool {
	for k := range px.preds {
		px.counts[k].In++
		start := time.Now()
		ok := px.preds[k](i, j)
		px.counts[k].SampledNs += time.Since(start).Nanoseconds()
		px.counts[k].Sampled++
		if !ok {
			px.counts[k].Pruned++
			return false
		}
	}
	return true
}

// Emit records pair (i, j) — combined indices, either order — as a candidate
// for TED verification. Callers must have screened the pair.
func (px *Pipeline) Emit(i, j int) {
	px.cands = append(px.cands, sim.Candidate{I: i, J: j})
	if px.flushAt > 0 && len(px.cands) >= px.flushAt {
		px.flushCandidates()
	}
}

// Offer screens pair (i, j) and emits it when it survives.
func (px *Pipeline) Offer(i, j int) {
	if px.Screen(i, j) {
		px.Emit(i, j)
	}
}

// Job describes one join execution: the source, the filter chain, the
// threshold, and the execution knobs. The zero Source means SortedLoop.
type Job struct {
	// Source enumerates candidates; nil means SortedLoop().
	Source CandidateSource
	// Filters is the pipeline the source's pairs must survive, in order.
	Filters []PairFilter
	// Tau is the TED threshold τ ≥ 0.
	Tau int
	// Verifier decides candidate pairs; nil installs the default τ-banded
	// TED verifier over arena views cached in the run's Cache.
	Verifier sim.Verifier
	// Workers sizes the worker pool used for candidate generation and TED
	// verification; 1 runs sequentially, and values below 1 ("unset") are
	// normalized to runtime.GOMAXPROCS(0).
	Workers int
	// Shards asks the source to decompose the join into at least this many
	// independent tasks even when that costs extra filtering work (PartSJ's
	// fragment-and-replicate plan rebuilds an index per task). ≤ 1 leaves
	// the decomposition to the source.
	Shards int
	// Cache, when non-nil, is the artifact cache shared across runs (a
	// corpus's cache): per-tree filter signatures and source artifacts are
	// looked up there before being recomputed. nil gives the run a private
	// cache.
	Cache *Cache
	// DynTokens, when non-nil, resolves a persistent token-index snapshot
	// for a tokenizer (a dynamic corpus's maintained inverted index). The
	// token-index source probes the snapshot instead of building a per-run
	// index when the snapshot covers exactly the run's collection; results
	// are identical either way.
	DynTokens func(Tokenizer) *TokenSnap
	// PrefixC, when above the source tokenizer's Slack(), grows the token
	// index's per-tree indexed prefix to PrefixC·τ+1 expanded elements
	// (default Slack()·τ+1). Any such value is sound — a longer prefix is a
	// superset of the proven one and sharpens the count threshold — so the
	// planner may tune it freely; values at or below Slack() are ignored.
	PrefixC int
	// Plan is the execution-plan record the caller stamps into the run's
	// Stats (Stats.Plan) for diagnostics; the engine does not interpret it.
	Plan sim.PlanRecord
}

// SelfJoin runs the job over one collection and reports every unordered pair
// within Tau, in canonical ascending (I, J) order.
//
// It is the uncancellable materialising form of StreamSelf, retained for the
// legacy free functions; it panics on a negative threshold.
func (job Job) SelfJoin(ts []*tree.Tree) ([]sim.Pair, *sim.Stats) {
	return job.collect(context.Background(), ts, -1)
}

// Join runs the job as a cross join: every pair (a ∈ A, b ∈ B) within Tau,
// with Pair.I indexing into a and Pair.J into b. Both collections must share
// one label table. Like SelfJoin, it is the uncancellable materialising form
// of StreamJoin and panics on a negative threshold.
func (job Job) Join(a, b []*tree.Tree) ([]sim.Pair, *sim.Stats) {
	return job.collect(context.Background(), combined(a, b), len(a))
}

// StreamSelf runs the job over one collection, handing each result pair to
// sink as the pipeline confirms it — no materialised result slice, no
// ordering guarantee (use SelfJoin or sort afterwards for the canonical
// order). A sink returning false stops the run early; that is not an error.
// Cancelling ctx aborts the run promptly and returns ctx's error together
// with the statistics accumulated so far.
func (job Job) StreamSelf(ctx context.Context, ts []*tree.Tree, sink sim.EmitFunc) (*sim.Stats, error) {
	return job.stream(ctx, ts, -1, sink)
}

// StreamJoin is StreamSelf for a cross join of two collections; Pair.I
// indexes into a and Pair.J into b.
func (job Job) StreamJoin(ctx context.Context, a, b []*tree.Tree, sink sim.EmitFunc) (*sim.Stats, error) {
	return job.stream(ctx, combined(a, b), len(a), sink)
}

func combined(a, b []*tree.Tree) []*tree.Tree {
	ts := make([]*tree.Tree, 0, len(a)+len(b))
	ts = append(ts, a...)
	ts = append(ts, b...)
	return ts
}

// collect materialises a stream into the canonical sorted slice; validation
// failures panic (the legacy contract of the free functions).
func (job Job) collect(ctx context.Context, ts []*tree.Tree, split int) ([]sim.Pair, *sim.Stats) {
	var results []sim.Pair
	stats, err := job.stream(ctx, ts, split, func(p sim.Pair) bool {
		results = append(results, p)
		return true
	})
	if err != nil {
		panic(err)
	}
	sim.SortPairs(results)
	return results, stats
}

func (job Job) stream(outer context.Context, ts []*tree.Tree, split int, sink sim.EmitFunc) (*sim.Stats, error) {
	stats := &sim.Stats{Trees: len(ts)}
	if job.Tau < 0 {
		return stats, fmt.Errorf("engine: negative threshold %d", job.Tau)
	}
	// The run context is cancelled either from outside or by the emitter
	// when the sink stops the stream; sources poll it between probes.
	ctx, cancel := context.WithCancel(outer)
	defer cancel()
	source := job.Source
	if source == nil {
		source = SortedLoop()
	}
	stats.Plan = job.Plan
	em := &emitter{sink: sink, split: split, cancel: cancel}
	c := newCollection(ctx, ts, split, job.Tau, job.Workers, job.Cache, job.DynTokens)
	c.PrefixC = job.PrefixC

	// Prepare the filter chain once over the combined collection; stage
	// preparation time is candidate-generation effort. One stage's
	// preparation is the engine's largest uncancellable unit (a cold
	// corpus computes every tree's signature here), so check the context
	// between stages rather than starting work the caller abandoned.
	start := time.Now()
	preds := make([]func(i, j int) bool, len(job.Filters))
	for k, f := range job.Filters {
		if err := outer.Err(); err != nil {
			stats.CandTime += time.Since(start)
			stats.CandWall += time.Since(start)
			return stats, err
		}
		preds[k] = f.Prepare(c)
	}
	stats.CandTime += time.Since(start)
	stats.CandWall += time.Since(start)

	var vfactory sim.BatchVerifierFactory
	if job.Verifier != nil {
		// A custom verifier (a test's instrumentation) runs through the same
		// batched stage, adapted statelessly.
		vfactory = sim.AdaptVerifier(ts, job.Verifier)
	} else {
		// The arena views are τ-independent per-tree signatures like any
		// filter's: compute (or warm-hit) every tree's now, so the corpus
		// contract — a later join recomputes no per-tree signature — covers
		// the verifier too, and per-candidate lookups stay lock-free. Like a
		// filter stage's preparation, this is an uncancellable unit — check
		// the context first rather than starting work the caller abandoned.
		if err := outer.Err(); err != nil {
			return stats, err
		}
		vstart := time.Now()
		vfactory = NewArenaVerifiers(ts, c.cache, c.counters)
		stats.VerifyTime += time.Since(vstart)
	}
	flushAt := 0
	if c.Workers <= 1 {
		flushAt = inlineFlushChunk
	}
	stats.Source = source.Name()
	tasks := source.Tasks(c, job.Shards)
	if job.Shards > 1 && len(tasks) > 1 {
		// Sources' natural decompositions (the sorted loop's strides, the
		// cross-join plan) offer every pair exactly once by construction, so
		// streaming stays constant-memory. Only an explicitly sharded
		// fragment-and-replicate plan gets the dedup map, defending against
		// aliased trees straddling a shard boundary (see core's sharded
		// plan).
		em.seen = make(map[[2]int]bool)
	}
	pipes := make([]*Pipeline, len(tasks))
	for i := range pipes {
		px := &Pipeline{
			c:        c,
			preds:    preds,
			counts:   make([]sim.StageStats, len(job.Filters)),
			flushAt:  flushAt,
			vfactory: vfactory,
			em:       em,
		}
		for k, f := range job.Filters {
			px.counts[k].Name = f.Name()
		}
		pipes[i] = px
	}
	tasksStart := time.Now()
	runTasks(tasks, pipes, c.Workers)
	tasksWall := time.Since(tasksStart)

	// Merge task-local candidates and statistics. Stage counters merge by
	// position: every pipeline carries the same chain. Inline verification
	// ran inside the sources' timed loops, so its elapsed time moves from
	// the candidate-generation clock to the verification clock (where
	// VerifyStream already recorded it) — and is carved out of the stage's
	// wall clock the same way.
	stats.Stages = make([]sim.StageStats, len(job.Filters))
	for k, f := range job.Filters {
		stats.Stages[k].Name = f.Name()
	}
	var cands []sim.Candidate
	var inline time.Duration
	for _, px := range pipes {
		cands = append(cands, px.cands...)
		px.stats.CandTime -= px.inlineTime
		inline += px.inlineTime
		mergeStats(stats, &px.stats)
		for k := range px.counts {
			stats.Stages[k].In += px.counts[k].In
			stats.Stages[k].Pruned += px.counts[k].Pruned
			stats.Stages[k].SampledNs += px.counts[k].SampledNs
			stats.Stages[k].Sampled += px.counts[k].Sampled
		}
		if px.bv != nil {
			px.bv.Close()
		}
	}
	stats.CandWall += tasksWall - inline
	sim.VerifyStreamBatched(ctx, cands, job.Tau, vfactory, c.Workers, stats, em.emit)
	stats.Results = em.n
	stats.DPAvoided += c.counters.DPAvoided.Load()
	stats.KeyrootsSkipped += c.counters.KeyrootsSkipped.Load()
	stats.BandAborts += c.counters.BandAborts.Load()
	stats.StrategyLeft += c.counters.StrategyLeft.Load()
	stats.StrategyRight += c.counters.StrategyRight.Load()
	if err := outer.Err(); err != nil {
		return stats, err
	}
	return stats, nil
}

// inlineFlushChunk is the candidate-buffer bound of sequential jobs: large
// enough to amortise the per-batch clock reads, small enough that a
// paper-scale join never holds more than a sliver of its candidates.
const inlineFlushChunk = 4096

// runTasks executes the tasks on a pool of at most workers goroutines; one
// task (or one worker) runs inline.
func runTasks(tasks []Task, pipes []*Pipeline, workers int) {
	if len(tasks) == 0 {
		return
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 || len(tasks) == 1 {
		for i, t := range tasks {
			t(pipes[i])
		}
		return
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(tasks) {
					return
				}
				tasks[i](pipes[i])
			}
		}()
	}
	wg.Wait()
}

// mergeStats folds one task's counters into the join totals. Times are
// summed across tasks (CPU effort, as the sharded plan always reported), so
// parallel speedups show up in Stats.CandWall, not here.
func mergeStats(total, st *sim.Stats) {
	total.CandTime += st.CandTime
	total.PartitionTime += st.PartitionTime
	total.IndexedSubgraphs += st.IndexedSubgraphs
	total.SubgraphProbes += st.SubgraphProbes
	total.MatchTests += st.MatchTests
	total.MatchHits += st.MatchHits
	total.SmallTreeFallback += st.SmallTreeFallback
	total.IndexBuildTime += st.IndexBuildTime
	total.PostingsScanned += st.PostingsScanned
	total.SkippedByCount += st.SkippedByCount
	total.PostingsTombstoned += st.PostingsTombstoned
	if st.Source != "" {
		// A task reported the source that effectively ran (the token index
		// stamping its sorted-loop fallback); it overrides the configured one.
		total.Source = st.Source
	}
}
