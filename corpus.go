package treejoin

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"treejoin/internal/core"
	"treejoin/internal/engine"
	"treejoin/internal/engine/plan"
	"treejoin/internal/segstore"
	"treejoin/internal/sim"
	"treejoin/internal/tree"
)

// Errors returned by the Corpus API. The legacy free functions panic on the
// same conditions; the Corpus surfaces them as wrapped sentinels so callers
// can test with errors.Is.
var (
	// ErrNilTree reports a nil *Tree in a corpus or as a query.
	ErrNilTree = errors.New("treejoin: nil tree")
	// ErrLabelTable reports trees that do not share one LabelTable — within
	// a corpus, across the two sides of a cross join, or between a query and
	// the corpus it searches.
	ErrLabelTable = errors.New("treejoin: trees do not share one LabelTable")
	// ErrNegativeThreshold reports a TED threshold τ < 0.
	ErrNegativeThreshold = errors.New("treejoin: negative threshold")
	// ErrUnknownMethod reports a Method value that names no join algorithm.
	ErrUnknownMethod = errors.New("treejoin: unknown method")
	// ErrUnknownPrefilter reports a Prefilter value that names no stage.
	ErrUnknownPrefilter = errors.New("treejoin: unknown prefilter")
	// ErrNilCorpus reports a nil *Corpus argument.
	ErrNilCorpus = errors.New("treejoin: nil corpus")
	// ErrOptionConflict reports an option combination the operation cannot
	// honor (e.g. WithMethod(MethodSTR) on a Search, which always runs on
	// the PartSJ index).
	ErrOptionConflict = errors.New("treejoin: conflicting options")
	// ErrImmutableSnapshot reports Add or Remove on a corpus view obtained
	// from Snapshot, which is frozen at its epoch by design.
	ErrImmutableSnapshot = errors.New("treejoin: corpus snapshot is immutable")
)

// CacheStats reports the effectiveness of a corpus's signature cache: Hits
// and Misses count per-tree artifact lookups, Entries the artifacts
// currently retained. A warm corpus re-joined at a new threshold shows
// Misses frozen — zero per-tree signature recomputation.
type CacheStats = engine.CacheStats

// corpusState is one immutable epoch of a corpus: the live trees in
// insertion order, their stable public ids, and every structure derived
// from the membership (the ownership set for cross-join cache routing, the
// persistent token-index snapshots). Mutations build a new state and swap
// the pointer — copy-on-write — so a query that loaded a state keeps a
// perfectly consistent view for its whole run while writers proceed.
type corpusState struct {
	epoch  int64
	ts     []*Tree
	ids    []int       // public id of the tree at each position
	pos    map[int]int // id -> current position
	nextID int
	lt     *LabelTable
	// members routes cross-join artifacts by owner (see crossJob).
	members map[*Tree]struct{}
	// tokidx holds the persistent token-index snapshots, by tokenizer name.
	// Materialised lazily by the first signature-method join after the
	// corpus has mutated; maintained by every later Add/Remove.
	tokidx map[string]dynEntry
}

type dynEntry struct {
	tz   engine.Tokenizer
	snap *engine.TokenSnap
}

// Corpus is the primary entry point for joining and querying a collection
// of trees: construct it once, query it many times, and — since the corpus
// is fully dynamic — mutate it in place with Add and Remove as documents
// arrive, change, and disappear. All trees must share one LabelTable
// (validated — NewCorpus and Add return errors instead of producing
// silently wrong joins).
//
// The corpus owns a signature cache: every per-tree artifact any query
// computes — traversal strings, histograms, Euler strings and gram bags,
// binary views, δ-partitions, and the verifier's arena views (postorder
// labels, leftmost-leaf indices, keyroots of both decompositions) — is
// cached by (artifact, tree) and reused by every later
// query, whatever its threshold or method. A second SelfJoin at a different
// τ recomputes no per-tree signature and re-runs no prepare; only the
// τ-dependent pair predicates and candidate enumeration run again. Search
// and KNN queries additionally share a small LRU of per-threshold PartSJ
// indexes (see WithIndexCacheCap). Removing trees evicts their artifacts,
// so the cache's memory tracks the live collection; beyond that it never
// evicts — its size is bounded by the filter kinds and PartSJ thresholds
// actually queried (see DESIGN.md, "The corpus artifact cache").
//
// Mutations are epoch-versioned with copy-on-write snapshots: Add and
// Remove build a new immutable state and swap it in, so every query — and
// every in-flight SelfJoinSeq or Search iterator — runs against the exact
// membership it started with, while writers proceed concurrently. Queries
// index trees by dense position (0..Len()-1 in insertion order, exactly as
// a freshly built corpus over the same trees would); positions shift when
// earlier trees are removed, so mutations address trees by the stable ids
// Add returns (ID and PosOf translate). Snapshot pins the current epoch as
// a frozen corpus view. A mutated corpus also keeps its token inverted
// index live across joins — posting lists are appended on Add and
// tombstoned on Remove, compacting when tombstones exceed half the
// postings — instead of rebuilding it per join (see DESIGN.md, "Dynamic
// corpora").
//
// Every query takes a context.Context: cancellation or deadline expiry
// aborts the engine's candidate loops, worker pools, and verification stage
// promptly, returning ctx's error together with whatever partial results and
// statistics had accumulated. The Seq variants stream results as the
// pipeline verifies them, in no particular order, with constant result
// memory — ranging over a handful of pairs and breaking early cancels the
// rest of the join.
//
// A Corpus is safe for concurrent use, including concurrent readers with
// writers; Add/Remove serialise against each other.
type Corpus struct {
	state    atomic.Pointer[corpusState]
	cache    *engine.Cache
	indexCap int
	frozen   bool    // a Snapshot view: mutations are rejected
	parent   *Corpus // the live corpus behind a Snapshot view; nil otherwise

	// overflow catches artifacts of trees no longer live in the corpus: a
	// query pinned to a pre-Remove state (a Snapshot, an in-flight
	// iterator) that recomputes a dead tree's signature stores it here, not
	// in the shared cache — so Remove's eviction is never undone and the
	// shared cache's memory genuinely tracks the live collection. Set only
	// on Snapshot views (it dies with the view); a live corpus uses a
	// per-run overflow instead (see runCache), so racing writes never
	// accumulate.
	overflow *engine.Cache

	writeMu sync.Mutex // serialises mutations and token-index installs

	// store backs a persistent corpus (see Open): mutations write through to
	// it — WAL first, then the published state — so an acknowledged Add or
	// Remove survives a crash. Nil for in-memory corpora.
	store      *segstore.Store
	persistent bool

	// planner is the corpus's learned cost model behind WithAutoPlan (the
	// default): per-stage selectivity and cost observed from completed runs,
	// decayed per mutation epoch. Shared with Snapshot views — a snapshot's
	// runs teach the same model, down-weighted by the epochs they lag. See
	// internal/engine/plan and autoplan.go.
	planner *plan.Model

	mu            sync.Mutex
	searchers     map[searcherKey]*core.KNN
	searcherEpoch int64
}

// runCache returns the cache a query on cp should read and write through: a
// router sending each tree's artifacts to the shared cache while the tree is
// live in the (parent) corpus's current state, and to an overflow once it is
// not. A Snapshot view routes to its per-view overflow (queries on the view
// stay warm together; it dies with the view); a live corpus only hits the
// overflow when a query races a Remove, so it gets a per-run one that dies
// with the query — overflow memory never outlives whoever needed it.
func (cp *Corpus) runCache() *engine.Cache {
	live, over := cp, cp.overflow
	if cp.parent != nil {
		live = cp.parent
	}
	if over == nil {
		over = engine.NewCache()
	}
	return engine.RoutedCache(func(t *tree.Tree) *engine.Cache {
		if _, ok := live.state.Load().members[t]; ok {
			return live.cache
		}
		return over
	})
}

// searcherKey identifies one index configuration of the per-corpus search
// machinery: queries differing only in threshold share a searcher (and its
// per-threshold index LRU).
type searcherKey struct {
	pos core.PositionFilter
}

// NewCorpus validates ts (no nil trees, one shared LabelTable) and returns a
// corpus over it. The slice is copied; the trees are shared, which is safe —
// trees are immutable. Corpus-level options are applied here (currently
// WithIndexCacheCap); per-query options go to the individual calls.
func NewCorpus(ts []*Tree, opts ...Option) (*Corpus, error) {
	c := buildConfig(opts)
	st := &corpusState{
		ts:      slices.Clone(ts),
		ids:     make([]int, len(ts)),
		pos:     make(map[int]int, len(ts)),
		nextID:  len(ts),
		members: make(map[*Tree]struct{}, len(ts)),
	}
	for i, t := range st.ts {
		if t == nil {
			return nil, fmt.Errorf("%w at index %d", ErrNilTree, i)
		}
		if st.lt == nil {
			st.lt = t.Labels
		} else if t.Labels != st.lt {
			return nil, fmt.Errorf("%w (tree %d)", ErrLabelTable, i)
		}
		st.ids[i] = i
		st.pos[i] = i
		st.members[t] = struct{}{}
	}
	cp := &Corpus{
		cache:     engine.NewCache(),
		indexCap:  c.indexCap,
		searchers: make(map[searcherKey]*core.KNN),
		planner:   plan.New(),
	}
	cp.state.Store(st)
	return cp, nil
}

// Len returns the number of live trees in the corpus. Each call reads the
// current state, so a Len-then-Tree loop racing a concurrent Remove can see
// positions disappear between calls — iterate over Trees() or a Snapshot()
// when writers may be active.
func (cp *Corpus) Len() int { return len(cp.state.Load().ts) }

// Tree returns the tree at position i (0 ≤ i < Len(), insertion order over
// the live trees) of the current state; see Len for the concurrent-mutation
// caveat.
func (cp *Corpus) Tree(i int) *Tree { return cp.state.Load().ts[i] }

// Trees returns a copy of the live trees in position order, read from one
// state — the race-free way to enumerate a corpus that concurrent writers
// may be mutating (each query method pins its state the same way).
func (cp *Corpus) Trees() []*Tree { return slices.Clone(cp.state.Load().ts) }

// ID returns the stable id of the tree at position i of the current state
// (see Len for the concurrent-mutation caveat). Ids are assigned by
// NewCorpus (0..n-1) and Add (continuing the sequence) and never reused;
// they survive removals of other trees, which shift positions but not ids.
func (cp *Corpus) ID(i int) int { return cp.state.Load().ids[i] }

// PosOf returns the current position of the tree with the given id, or
// false when the id was never assigned or its tree has been removed.
func (cp *Corpus) PosOf(id int) (int, bool) {
	p, ok := cp.state.Load().pos[id]
	return p, ok
}

// Epoch returns the corpus's mutation epoch: 0 at construction, bumped by
// every Add and Remove batch. Two reads at the same epoch observed the same
// membership.
func (cp *Corpus) Epoch() int64 { return cp.state.Load().epoch }

// CacheStats returns a snapshot of the corpus's signature-cache counters.
func (cp *Corpus) CacheStats() CacheStats { return cp.cache.Stats() }

// Snapshot returns a frozen view of the corpus at its current epoch: a
// corpus whose queries all run against this exact membership, unaffected by
// later Add/Remove on the parent (which proceed without blocking). The view
// shares the parent's signature cache, so its queries stay warm; artifacts
// of trees the parent has since removed land in a view-local overflow that
// is garbage-collected with the view, so a snapshot can never undo the
// parent's evictions. Add and Remove on the view return ErrImmutableSnapshot
// (respectively 0).
func (cp *Corpus) Snapshot() *Corpus {
	parent := cp
	if cp.parent != nil {
		parent = cp.parent
	}
	s := &Corpus{
		cache:     cp.cache,
		overflow:  engine.NewCache(),
		indexCap:  cp.indexCap,
		frozen:    true,
		parent:    parent,
		searchers: make(map[searcherKey]*core.KNN),
		planner:   cp.planner,
	}
	st := cp.state.Load()
	s.state.Store(st)
	s.searcherEpoch = st.epoch
	return s
}

// Add appends ts to the corpus (they become the highest positions, in
// order) and returns their stable ids. Validation matches NewCorpus: no nil
// trees, one shared LabelTable (an empty corpus adopts the first added
// tree's table). The mutation is atomic — queries see either none or all of
// the batch — and keeps every maintained artifact live: cached signatures
// of existing trees are untouched, and materialised token-index posting
// lists are appended to, not rebuilt. In-flight queries continue on their
// pre-Add snapshot.
func (cp *Corpus) Add(ts ...*Tree) ([]int, error) {
	if cp.frozen {
		return nil, ErrImmutableSnapshot
	}
	if len(ts) == 0 {
		return nil, nil
	}
	cp.writeMu.Lock()
	defer cp.writeMu.Unlock()
	st := cp.state.Load()
	lt := st.lt
	for i, t := range ts {
		if t == nil {
			return nil, fmt.Errorf("%w (added tree %d)", ErrNilTree, i)
		}
		if lt == nil {
			lt = t.Labels
		} else if t.Labels != lt {
			return nil, fmt.Errorf("%w (added tree %d)", ErrLabelTable, i)
		}
	}
	ns := &corpusState{
		epoch:   st.epoch + 1,
		ts:      append(slices.Clone(st.ts), ts...),
		ids:     slices.Clone(st.ids),
		pos:     maps.Clone(st.pos),
		nextID:  st.nextID + len(ts),
		lt:      lt,
		members: maps.Clone(st.members),
		tokidx:  make(map[string]dynEntry, len(st.tokidx)),
	}
	ids := make([]int, len(ts))
	for i, t := range ts {
		id := st.nextID + i
		ids[i] = id
		ns.ids = append(ns.ids, id)
		ns.pos[id] = len(st.ts) + i
		ns.members[t] = struct{}{}
	}
	// Write-through for a persistent corpus: every tree reaches the store's
	// WAL before the new state publishes, so an acknowledged Add survives a
	// crash. On error nothing publishes — though an I/O failure mid-batch can
	// leave a prefix of the batch durable, to reappear on reopen.
	if cp.store != nil {
		for i, t := range ts {
			if err := cp.store.Add(int64(ids[i]), t); err != nil {
				return nil, fmt.Errorf("treejoin: persist add: %w", err)
			}
		}
	}
	for name, e := range st.tokidx {
		ns.tokidx[name] = dynEntry{tz: e.tz, snap: e.snap.WithAdded(ts, cp.cache)}
	}
	// Keep the arena views live the way the token index is kept live: once a
	// join has paid to flatten the collection (the kind is populated), each
	// Add flattens just its batch, so the next join's verifier finds every
	// tree warm instead of rebuilding views for the whole membership. A
	// corpus that never joined (or only ever used custom verifiers) skips
	// this — the artifact would be pure speculation. Removal needs no
	// counterpart: Remove's Evict drops every kind, arenas included.
	if cp.cache.KindEntries(engine.ArenaKey) > 0 {
		engine.ArenaFor(cp.cache, ts)
	}
	cp.state.Store(ns)
	cp.dropSearchers(ns.epoch)
	return ids, nil
}

// dropSearchers eagerly releases the per-threshold search indexes built over
// the previous membership when a mutation lands at epoch. The searcher
// method would rotate them lazily on the next Search/KNN anyway; dropping
// them here means a mutation that is never followed by a search does not
// keep full PartSJ indexes (and the removed trees they reference) resident.
func (cp *Corpus) dropSearchers(epoch int64) {
	cp.mu.Lock()
	cp.searchers = make(map[searcherKey]*core.KNN)
	cp.searcherEpoch = epoch
	cp.mu.Unlock()
}

// Remove deletes the trees with the given ids from the corpus and returns
// how many were removed (unknown or already-removed ids are skipped).
// Later trees shift down to keep positions dense, so after the call the
// corpus is indistinguishable — query for query, pair for pair — from a
// corpus freshly built over the survivors; ids are stable throughout. The
// removed trees' cached signatures and arena views are evicted, their
// token-index postings tombstoned (probes skip them; the lists compact once
// tombstones exceed half the postings), and the per-threshold search-index
// LRU is invalidated, so no stale index can serve a post-Remove query.
// In-flight queries continue on their pre-Remove snapshot.
func (cp *Corpus) Remove(ids ...int) int {
	if cp.frozen || len(ids) == 0 {
		return 0
	}
	cp.writeMu.Lock()
	defer cp.writeMu.Unlock()
	st := cp.state.Load()
	gone := make(map[int]bool, len(ids)) // positions to drop
	for _, id := range ids {
		if p, ok := st.pos[id]; ok {
			gone[p] = true
		}
	}
	if len(gone) == 0 {
		return 0
	}
	positions := make([]int, 0, len(gone))
	for p := range gone {
		positions = append(positions, p)
	}
	slices.Sort(positions)
	// Write-through for a persistent corpus (see Add). Remove cannot return
	// an error, so a store failure aborts the whole mutation: nothing is
	// unpublished from the in-memory state and the call reports 0.
	if cp.store != nil {
		for _, p := range positions {
			if err := cp.store.Remove(int64(st.ids[p])); err != nil {
				return 0
			}
		}
	}
	ns := &corpusState{
		epoch:   st.epoch + 1,
		ts:      make([]*Tree, 0, len(st.ts)-len(gone)),
		ids:     make([]int, 0, len(st.ts)-len(gone)),
		pos:     make(map[int]int, len(st.ts)-len(gone)),
		nextID:  st.nextID,
		lt:      st.lt,
		members: make(map[*Tree]struct{}, len(st.ts)-len(gone)),
		tokidx:  make(map[string]dynEntry, len(st.tokidx)),
	}
	var removed []*tree.Tree
	for p, t := range st.ts {
		if gone[p] {
			removed = append(removed, t)
			continue
		}
		ns.pos[st.ids[p]] = len(ns.ts)
		ns.ts = append(ns.ts, t)
		ns.ids = append(ns.ids, st.ids[p])
		ns.members[t] = struct{}{}
	}
	// Below the token-index cutoff dynTokens stops serving the maintained
	// snapshots, so drop them rather than paying their write-path upkeep on
	// every further mutation; they re-materialise if the corpus grows back.
	if len(ns.ts) >= engine.TokenIndexMinTrees {
		for name, e := range st.tokidx {
			ns.tokidx[name] = dynEntry{tz: e.tz, snap: e.snap.WithRemoved(positions)}
		}
	}
	// Evict the removed trees' artifacts — unless the same tree object is
	// still live at another position (the corpus permits aliases), in which
	// case its artifacts stay warm for the survivor.
	evict := removed[:0]
	for _, t := range removed {
		if _, alive := ns.members[t]; !alive {
			evict = append(evict, t)
		}
	}
	// Publish the new state before evicting: once the swap is visible,
	// runCache routes the dead trees to overflow caches, so the window in
	// which a racing reader can re-store an evicted artifact into the
	// shared cache shrinks to stores whose route was resolved before the
	// swap — a handful of in-flight artifacts at worst, not the steady
	// leak the reverse order would allow.
	cp.state.Store(ns)
	cp.cache.Evict(evict...)
	cp.dropSearchers(ns.epoch)
	return len(positions)
}

// dynTokens returns the persistent token-index provider for a self join
// over st: the engine's token-index source calls it to probe a maintained
// snapshot instead of building a per-run index. A corpus that has never
// mutated keeps the per-run source (a one-shot join has nothing to
// amortise); the first signature-method join after a mutation materialises
// the snapshot — built from the same cached bags the per-run source would
// use — installs it for every later join, and Add/Remove keep it live.
func (cp *Corpus) dynTokens(st *corpusState) func(engine.Tokenizer) *engine.TokenSnap {
	return func(tz engine.Tokenizer) *engine.TokenSnap {
		if st.epoch == 0 || len(st.ts) < engine.TokenIndexMinTrees {
			return nil
		}
		if e, ok := st.tokidx[tz.Name()]; ok {
			return e.snap
		}
		// Materialise only for the corpus's current state: a stale view (an
		// in-flight iterator that outlived a mutation) keeps the per-run
		// prefix source rather than paying a full-bag build it could never
		// install or amortise. Reading the current state also picks up a
		// snapshot a concurrent join installed after st was pinned, keeping
		// the duplicate-build window minimal.
		if cur := cp.state.Load(); cur.epoch != st.epoch {
			return nil
		} else if e, ok := cur.tokidx[tz.Name()]; ok {
			return e.snap
		}
		snap := engine.NewTokenSnap(tz, st.ts, cp.runCache())
		// Install for later joins — unless the corpus moved on while the
		// snapshot was building; the one-off still serves this run (it was
		// built from st.ts, which is what the run joins).
		cp.writeMu.Lock()
		cur := cp.state.Load()
		if cur.epoch == st.epoch {
			if e, ok := cur.tokidx[tz.Name()]; ok {
				snap = e.snap
			} else {
				ns := *cur
				ns.tokidx = maps.Clone(cur.tokidx)
				if ns.tokidx == nil {
					ns.tokidx = make(map[string]dynEntry, 1)
				}
				ns.tokidx[tz.Name()] = dynEntry{tz: tz, snap: snap}
				cp.state.Store(&ns)
			}
		}
		cp.writeMu.Unlock()
		return snap
	}
}

// SelfJoin reports every unordered pair of corpus trees whose tree edit
// distance is at most tau, in ascending (I, J) order, with execution
// statistics. Per-tree signatures come from the corpus cache — a repeat join
// at any threshold recomputes none of them. On cancellation it returns the
// pairs found so far (still sorted), the partial statistics, and ctx's
// error.
func (cp *Corpus) SelfJoin(ctx context.Context, tau int, opts ...Option) ([]Pair, Stats, error) {
	c := buildConfig(opts)
	var pairs []Pair
	stats, err := cp.streamSelfWith(ctx, tau, c, func(p Pair) bool {
		pairs = append(pairs, p)
		return true
	})
	if stats == nil {
		return nil, Stats{}, err
	}
	sim.SortPairs(pairs)
	c.publishStats(stats)
	return pairs, *stats, err
}

// streamSelfWith is the configured core of SelfJoin: it pins the corpus
// state, plans, and streams every verified pair to sink. It returns a nil
// Stats exactly when validation rejected the query before anything ran.
// Besides SelfJoin it is the per-shard round the sharded fan-out runs — the
// sharded layer passes a config with statsDst stripped, so concurrent rounds
// never race on a caller's WithStats destination, and rolls the returned
// per-round Stats up itself.
func (cp *Corpus) streamSelfWith(ctx context.Context, tau int, c config, sink sim.EmitFunc) (*sim.Stats, error) {
	job, tz, err := c.pipelineChecked(tau)
	if err != nil {
		return nil, err
	}
	st := cp.state.Load()
	job.Cache = cp.runCache()
	job.DynTokens = cp.dynTokens(st)
	job, _ = cp.planJob(ctx, c, job, tz, st.ts, -1, st.epoch)
	stats, err := job.StreamSelf(ctx, st.ts, sink)
	if err == nil {
		cp.observeRun(stats, st.ts, -1, tau, st.epoch)
	}
	return stats, err
}

// SelfJoinSeq is the streaming SelfJoin: it returns a sequence that runs the
// join when ranged over, yielding each verified pair as the pipeline
// produces it — constant result memory, no ordering guarantee (sort the
// collected pairs, or use SelfJoin, for the canonical order). Breaking out
// of the range stops the join; ranging again re-runs it (cheaply, against
// the warm cache). Use WithStats to receive the run's statistics after the
// sequence ends. Option and threshold validation happens eagerly, before the
// sequence is returned; cancellation simply ends the sequence early — check
// ctx.Err() afterwards to distinguish completion from abort. The sequence is
// pinned to the corpus state at this call: later Add/Remove do not disturb a
// running (or re-run) iteration.
func (cp *Corpus) SelfJoinSeq(ctx context.Context, tau int, opts ...Option) (iter.Seq[Pair], error) {
	c := buildConfig(opts)
	job, tz, err := c.pipelineChecked(tau)
	if err != nil {
		return nil, err
	}
	st := cp.state.Load()
	job.Cache = cp.runCache()
	job.DynTokens = cp.dynTokens(st)
	job, _ = cp.planJob(ctx, c, job, tz, st.ts, -1, st.epoch)
	return func(yield func(Pair) bool) {
		stats, err := job.StreamSelf(ctx, st.ts, sim.EmitFunc(yield))
		if err == nil {
			cp.observeRun(stats, st.ts, -1, tau, st.epoch)
		}
		c.publishStats(stats)
	}, nil
}

// Join reports every cross pair (a ∈ this corpus, b ∈ other) within
// distance tau; Pair.I indexes into the receiver and Pair.J into other. The
// corpora must share one LabelTable (validated). Signatures for both sides
// are drawn from — and cached in — the receiver's cache, so repeated joins
// against the same partner warm up too.
func (cp *Corpus) Join(ctx context.Context, other *Corpus, tau int, opts ...Option) ([]Pair, Stats, error) {
	c := buildConfig(opts)
	var pairs []Pair
	st, err := cp.streamJoinWith(ctx, other, tau, c, func(p Pair) bool {
		pairs = append(pairs, p)
		return true
	})
	if st == nil {
		return nil, Stats{}, err
	}
	sim.SortPairs(pairs)
	c.publishStats(st)
	return pairs, *st, err
}

// streamJoinWith is the configured core of Join, with streamSelfWith's
// contract (nil Stats iff validation failed); the sharded fan-out's
// cross-shard rounds run on it.
func (cp *Corpus) streamJoinWith(ctx context.Context, other *Corpus, tau int, c config, sink sim.EmitFunc) (*sim.Stats, error) {
	run, err := cp.crossJob(ctx, c, other, tau)
	if err != nil {
		return nil, err
	}
	st, err := run.job.StreamJoin(ctx, run.a, run.b, sink)
	if err == nil {
		cp.observeRun(st, run.comb, len(run.a), tau, run.epoch)
	}
	return st, err
}

// JoinSeq is the streaming Join, with SelfJoinSeq's contract.
func (cp *Corpus) JoinSeq(ctx context.Context, other *Corpus, tau int, opts ...Option) (iter.Seq[Pair], error) {
	c := buildConfig(opts)
	run, err := cp.crossJob(ctx, c, other, tau)
	if err != nil {
		return nil, err
	}
	return func(yield func(Pair) bool) {
		st, err := run.job.StreamJoin(ctx, run.a, run.b, sim.EmitFunc(yield))
		if err == nil {
			cp.observeRun(st, run.comb, len(run.a), tau, run.epoch)
		}
		c.publishStats(st)
	}, nil
}

// crossRun is one assembled (and planned) cross join: the job, both sides'
// pinned memberships, their concatenation for the planner's bookkeeping,
// and the receiver's epoch the plan was made at.
type crossRun struct {
	job   engine.Job
	a, b  []*Tree
	comb  []*Tree
	epoch int64
}

// crossJob validates a cross join against other, snapshots both corpora's
// states (the join runs against exactly these memberships even when either
// side mutates mid-run), assembles its job, and lets the receiver's cost
// model plan it (the model never calibrates on cross joins — it plans from
// whatever self-join observations it holds, or emits the fixed plan). The
// run's cache routes each tree's artifacts to the corpus that owns it, so
// both sides warm their own caches and neither retains (and pins) the
// other's trees; trees belonging to neither side — including trees either
// side has since removed — land in a run-local overflow that dies with the
// query.
func (cp *Corpus) crossJob(ctx context.Context, c config, other *Corpus, tau int) (crossRun, error) {
	if other == nil {
		return crossRun{}, ErrNilCorpus
	}
	sa, sb := cp.state.Load(), other.state.Load()
	if sa.lt != nil && sb.lt != nil && sa.lt != sb.lt {
		return crossRun{}, fmt.Errorf("%w (cross join)", ErrLabelTable)
	}
	job, tz, err := c.pipelineChecked(tau)
	if err != nil {
		return crossRun{}, err
	}
	ra, rb := cp.runCache(), other.runCache()
	job.Cache = engine.RoutedCache(func(t *tree.Tree) *engine.Cache {
		if _, ok := sb.members[t]; ok {
			return rb
		}
		return ra
	})
	comb := make([]*Tree, 0, len(sa.ts)+len(sb.ts))
	comb = append(append(comb, sa.ts...), sb.ts...)
	job, _ = cp.planJob(ctx, c, job, tz, comb, len(sa.ts), sa.epoch)
	return crossRun{job: job, a: sa.ts, b: sb.ts, comb: comb, epoch: sa.epoch}, nil
}

// Search reports every corpus tree within TED tau of q, in ascending corpus
// order. The per-threshold PartSJ index is built on first use and retained
// in the corpus's index LRU, so repeated searches at the same threshold pay
// only probing and verification; mutations invalidate the LRU, so a stale
// index can never serve a post-Remove query. Search always runs on the
// PartSJ index; WithMethod, WithPrefilter, and WithShards conflict with it.
func (cp *Corpus) Search(ctx context.Context, q *Tree, tau int, opts ...Option) ([]Match, error) {
	if tau < 0 {
		return nil, fmt.Errorf("%w %d", ErrNegativeThreshold, tau)
	}
	st := cp.state.Load()
	c, err := cp.queryConfig(st, q, "Search", opts)
	if err != nil {
		return nil, err
	}
	return cp.searcher(st, c).IndexAt(tau).SearchCtx(ctx, q)
}

// TopK returns the k closest pairs of the corpus by TED, ordered by
// (Dist, I, J) — the threshold-free SelfJoin. It runs PartSJ at
// geometrically increasing thresholds until k pairs are in reach; fewer than
// k pairs come back only when the corpus has fewer than k pairs in total.
// All rounds draw on the corpus cache, and WithWorkers/WithShards
// parallelise them. On cancellation it returns the pairs the aborted round
// had found (best-effort, not necessarily the global top k) and ctx's
// error. TopK always runs PartSJ; WithMethod and WithPrefilter conflict
// with it.
func (cp *Corpus) TopK(ctx context.Context, k int, opts ...Option) ([]Pair, error) {
	c := buildConfig(opts)
	if err := c.requirePartSJ("TopK", true); err != nil {
		return nil, err
	}
	return core.TopKCtx(ctx, cp.state.Load().ts, k, c.coreOptions(0), c.shards, cp.runCache())
}

// KNN returns the k corpus trees closest to q by TED, ordered by
// (Dist, Pos), with no threshold required. It searches per-threshold indexes
// at expanding thresholds, sharing Search's index LRU, so a query workload
// settles into reusing a handful of them. Fewer than k matches are returned
// only when the corpus holds fewer than k trees. KNN always runs on the
// PartSJ index; WithMethod, WithPrefilter, and WithShards conflict with
// it.
func (cp *Corpus) KNN(ctx context.Context, q *Tree, k int, opts ...Option) ([]Match, error) {
	st := cp.state.Load()
	c, err := cp.queryConfig(st, q, "KNN", opts)
	if err != nil {
		return nil, err
	}
	return cp.searcher(st, c).NearestCtx(ctx, q, k)
}

// Incremental returns an empty streaming join with threshold tau that shares
// the corpus's signature cache: trees the corpus has already joined (or that
// were added before) enter the stream without recomputing their binary view
// or partition. The stream itself starts empty — it does not contain the
// corpus trees — and evolves independently of later corpus mutations; its
// Pairs and Retracted views maintain a standing result set across the
// stream's own Add/Remove sequence.
func (cp *Corpus) Incremental(tau int, opts ...Option) (*Incremental, error) {
	if tau < 0 {
		return nil, fmt.Errorf("%w %d", ErrNegativeThreshold, tau)
	}
	c := buildConfig(opts)
	if err := c.requirePartSJ("Incremental", false); err != nil {
		return nil, err
	}
	return &Incremental{inner: core.NewIncrementalCached(c.coreOptions(tau), cp.runCache())}, nil
}

// queryConfig validates a query tree and the options of an index-backed
// query (Search, KNN).
func (cp *Corpus) queryConfig(st *corpusState, q *Tree, op string, opts []Option) (config, error) {
	c := buildConfig(opts)
	if q == nil {
		return c, fmt.Errorf("%w (query)", ErrNilTree)
	}
	if st.lt != nil && q.Labels != st.lt {
		return c, fmt.Errorf("%w (query)", ErrLabelTable)
	}
	if err := c.requirePartSJ(op, false); err != nil {
		return c, err
	}
	return c, nil
}

// requirePartSJ rejects options an index-backed or expanding-threshold
// operation cannot honor. allowShards permits WithShards where the
// underlying runs are shardable engine joins (TopK).
func (c config) requirePartSJ(op string, allowShards bool) error {
	if c.method != MethodPartSJ {
		return fmt.Errorf("%w: %s supports MethodPartSJ only", ErrOptionConflict, op)
	}
	if len(c.prefilters) > 0 {
		return fmt.Errorf("%w: %s does not take prefilters", ErrOptionConflict, op)
	}
	if !allowShards && c.shards > 1 {
		return fmt.Errorf("%w: %s does not shard", ErrOptionConflict, op)
	}
	if len(c.planSpecs) > 0 {
		return fmt.Errorf("%w: %s does not take a fixed plan spec", ErrOptionConflict, op)
	}
	return nil
}

// searcher returns the index machinery for c's index configuration over the
// st membership, creating it on first use. The searcher cache is pinned to
// one epoch: the first query after a mutation rotates it, dropping every
// per-threshold index built over the old membership (the eviction-on-epoch
// contract — a stale index can never serve a post-Remove query). A query
// still running against an older state builds a one-off searcher for its
// snapshot instead of polluting the cache.
func (cp *Corpus) searcher(st *corpusState, c config) *core.KNN {
	capacity := cp.indexCap
	if capacity < 1 {
		capacity = core.DefaultIndexCacheCap
	}
	o := c.coreOptions(1) // Tau here only seeds KNN's expanding search
	key := searcherKey{pos: c.position}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.searcherEpoch != st.epoch {
		if cur := cp.state.Load(); cur.epoch == st.epoch {
			// First query at the new epoch: invalidate everything built
			// over the previous membership.
			cp.searchers = make(map[searcherKey]*core.KNN)
			cp.searcherEpoch = st.epoch
		} else {
			// The query snapshotted an older epoch than the cache serves.
			return core.NewKNNCached(st.ts, o, cp.runCache(), capacity)
		}
	}
	s := cp.searchers[key]
	if s == nil {
		s = core.NewKNNCached(st.ts, o, cp.runCache(), capacity)
		cp.searchers[key] = s
	}
	return s
}
