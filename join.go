package treejoin

import (
	"fmt"

	"treejoin/internal/baseline"
	"treejoin/internal/core"
	"treejoin/internal/engine"
	"treejoin/internal/engine/plan"
	"treejoin/internal/pqgram"
	"treejoin/internal/sim"
)

// Method selects the join algorithm. All methods return identical result
// sets; they differ in filtering strategy and therefore speed. Every method
// is a configuration of the same pipeline engine (a candidate source plus a
// chain of sound lower-bound filters; see DESIGN.md), so all of them support
// self joins, cross joins, parallel execution, and prefilter chaining alike.
type Method int

const (
	// MethodPartSJ is the paper's partition-based join (PRT): the default
	// and fastest method.
	MethodPartSJ Method = iota
	// MethodSTR filters with preorder/postorder traversal-string edit
	// distance lower bounds (Guha et al.).
	MethodSTR
	// MethodSET filters with the binary branch distance (Yang et al.).
	MethodSET
	// MethodBruteForce verifies every pair within the size window. The
	// ground-truth oracle; use only on small collections.
	MethodBruteForce
	// MethodHistogram filters with statistic lower bounds — leaf count,
	// height, label and degree histograms (Kailing et al.).
	MethodHistogram
	// MethodEulerString filters with the Euler-tour string edit distance
	// lower bound, sed(E1,E2) ≤ 2·TED (Akutsu et al.).
	MethodEulerString
	// MethodPQGram filters with the Euler-tour q-gram bag lower bound,
	// |G_q(T1) △ G_q(T2)| ≤ 4q·TED — the pq-gram machinery's exact-join
	// cousin. (The pq-gram distance itself approximates TED without bounding
	// it, so the approximate joins stay separate; see internal/pqgram.)
	MethodPQGram
)

func (m Method) String() string {
	switch m {
	case MethodPartSJ:
		return "PRT"
	case MethodSTR:
		return "STR"
	case MethodSET:
		return "SET"
	case MethodBruteForce:
		return "BF"
	case MethodHistogram:
		return "HIST"
	case MethodEulerString:
		return "EUL"
	case MethodPQGram:
		return "PQG"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Prefilter names a cheap pair-level filter stage that can be chained in
// front of any join method with WithPrefilter. Each stage is a sound TED
// lower bound, so chaining never changes the result set — only where the
// pruning work happens (Stats.Stages reports each stage's kill count).
type Prefilter int

const (
	// PrefilterHistogram is the statistics screen (MethodHistogram's
	// filter): the cheapest test per pair, the natural first link.
	PrefilterHistogram Prefilter = iota
	// PrefilterSTR is the traversal-string screen (MethodSTR's filter).
	PrefilterSTR
	// PrefilterSET is the binary branch screen (MethodSET's filter).
	PrefilterSET
	// PrefilterEulerString is the Euler-string screen (MethodEulerString's
	// filter).
	PrefilterEulerString
	// PrefilterPQGram is the Euler-gram bag screen (MethodPQGram's filter).
	PrefilterPQGram
)

func (p Prefilter) String() string {
	switch p {
	case PrefilterHistogram:
		return "HIST"
	case PrefilterSTR:
		return "STR"
	case PrefilterSET:
		return "SET"
	case PrefilterEulerString:
		return "EUL"
	case PrefilterPQGram:
		return "PQG"
	default:
		return fmt.Sprintf("Prefilter(%d)", int(p))
	}
}

func (p Prefilter) stage() engine.PairFilter {
	switch p {
	case PrefilterHistogram:
		return baseline.HISTFilter()
	case PrefilterSTR:
		return baseline.STRFilter()
	case PrefilterSET:
		return baseline.SETFilter()
	case PrefilterEulerString:
		return baseline.EULFilter()
	case PrefilterPQGram:
		return pqgram.Filter(0)
	default:
		panic(fmt.Sprintf("treejoin: unknown prefilter %d", int(p)))
	}
}

type config struct {
	method     Method
	workers    int
	shards     int
	position   core.PositionFilter
	randPart   bool
	fixedPlan  bool
	planSpecs  []PlanSpec
	seed       int64
	prefilters []Prefilter
	statsDst   *Stats
	indexCap   int

	// Persistent-store knobs (see Open, WithMemtableBudget, WithStoreNoSync,
	// WithSalvage).
	memBudget   int
	storeNoSync bool
	salvage     bool
}

// Option customises a join call.
type Option func(*config)

// WithMethod selects the join algorithm (default MethodPartSJ).
func WithMethod(m Method) Option { return func(c *config) { c.method = m } }

// WithWorkers runs the join on n parallel goroutines: TED verification for
// every method, plus candidate generation wherever the source decomposes —
// the sorted nested loop (MethodBruteForce, or a PlanSourceSortedLoop fixed
// plan) shards its probe loop freely, and PartSJ parallelises its
// partitioning pre-pass (its index probing parallelises only under
// WithShards). The signature methods' default token-index source
// generates candidates in one sequential task (the inverted index is shared
// state); their parallelism is in the verification stage. Unset (or any n < 1) uses one worker per available
// core — runtime.GOMAXPROCS(0); pass 1 explicitly for a sequential run.
// Stats.CandTime sums the tasks' own clocks (CPU effort); Stats.CandWall
// reports the stage's wall time.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithShards decomposes a PartSJ self-join into n intra-shard joins plus the
// necessary cross-shard joins (fragment-and-replicate over the size-sorted
// order) and runs the independent tasks on the WithWorkers pool — the
// paper's §6 parallel/distributed direction. Results are identical to the
// sequential join; total filtering work is higher (each task builds its own
// index), wall-clock time lower once a single core no longer keeps up.
// Applies to SelfJoin with MethodPartSJ only.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithPrefilter chains the given filter stages, in order, in front of the
// selected method's own filtering. Every stage is a sound lower bound, so
// results are unchanged; per-stage Stats.Stages attribution shows how many
// candidates each stage killed. Chaining a cheap screen before an expensive
// method (e.g. PrefilterHistogram before MethodPartSJ's subgraph matching,
// or before MethodSTR's string joins) trades a linear precomputation for a
// reduction in the expensive per-pair work.
func WithPrefilter(fs ...Prefilter) Option {
	return func(c *config) { c.prefilters = append(c.prefilters, fs...) }
}

// WithPaperPositionRanges makes PartSJ use the paper's τ−⌊k/2⌋ postorder
// pruning ranges instead of the proven-sound ±τ default. Slightly fewer
// candidates, but completeness is not guaranteed in adversarial corner cases;
// see DESIGN.md.
func WithPaperPositionRanges() Option {
	return func(c *config) { c.position = core.PositionPaper }
}

// WithoutPositionFilter disables PartSJ's postorder pruning layer (label
// grouping only). Exposed for ablation experiments.
func WithoutPositionFilter() Option {
	return func(c *config) { c.position = core.PositionOff }
}

// WithRandomPartitions replaces PartSJ's balanced MaxMinSize partitioning by
// uniformly random bridging edges (seeded by seed). Exposed for the
// partitioning-scheme ablation; the join remains correct, only slower.
func WithRandomPartitions(seed int64) Option {
	return func(c *config) { c.randPart = true; c.seed = seed }
}

// WithStats asks the call to write its execution statistics into dst when it
// finishes. The slice-returning Corpus calls return Stats directly; this
// option exists for the streaming variants, whose iter.Seq shape leaves no
// room for a Stats return — dst is filled when the sequence is exhausted or
// abandoned (partial statistics on cancellation or early break).
func WithStats(dst *Stats) Option { return func(c *config) { c.statsDst = dst } }

// WithIndexCacheCap bounds the per-threshold search-index cache behind a
// Corpus's Search and KNN queries (and the standalone KNN searcher) at n
// indexes, evicting the least recently used; n < 1 selects the default
// (which covers a full KNN expanding sweep for trees up to ~4K nodes). Each
// cached entry is a full PartSJ index over the collection, so the cap
// trades rebuild time against memory — but a cap smaller than a query's
// sweep makes the sweep cycle the LRU, rebuilding every index per query.
func WithIndexCacheCap(n int) Option { return func(c *config) { c.indexCap = n } }

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// validate reports whether the configured method and prefilter chain name
// real algorithms. The Corpus API surfaces this as an error; the legacy free
// functions panic on it.
func (c config) validate() error {
	switch c.method {
	case MethodPartSJ, MethodSTR, MethodSET, MethodBruteForce, MethodHistogram, MethodEulerString, MethodPQGram:
	default:
		return fmt.Errorf("%w %d", ErrUnknownMethod, int(c.method))
	}
	for _, p := range c.prefilters {
		switch p {
		case PrefilterHistogram, PrefilterSTR, PrefilterSET, PrefilterEulerString, PrefilterPQGram:
		default:
			return fmt.Errorf("%w %d", ErrUnknownPrefilter, int(p))
		}
	}
	for _, s := range c.planSpecs {
		switch s.Source {
		case PlanSourceDefault, PlanSourceTokenIndex, PlanSourceSortedLoop:
		default:
			return fmt.Errorf("%w: unknown plan source %d", ErrOptionConflict, int(s.Source))
		}
		for _, p := range s.Chain {
			switch p {
			case PrefilterHistogram, PrefilterSTR, PrefilterSET, PrefilterEulerString, PrefilterPQGram:
			default:
				return fmt.Errorf("%w %d", ErrUnknownPrefilter, int(p))
			}
		}
		if s.PrefixC < 0 {
			return fmt.Errorf("%w: negative prefix multiplier %d", ErrOptionConflict, s.PrefixC)
		}
	}
	return nil
}

func (c config) coreOptions(tau int) core.Options {
	return core.Options{
		Tau:             tau,
		Position:        c.position,
		RandomPartition: c.randPart,
		Seed:            c.seed,
		Workers:         c.workers,
	}
}

// jobChecked assembles the engine pipeline for the configured method; see
// pipelineChecked, which additionally exposes the planning seam.
func (c config) jobChecked(tau int) (engine.Job, error) {
	job, _, err := c.pipelineChecked(tau)
	return job, err
}

// pipelineChecked assembles the engine pipeline for the configured method:
// its candidate source, the prefilter chain followed by the method's own
// filter, and the execution knobs — with any WithFixedPlan spec applied and
// the resulting fixed plan record stamped into the job. This is the single
// dispatch point behind the Corpus queries and the legacy SelfJoin and Join;
// invalid input comes back as an error. The returned tokenizer is non-nil
// exactly when the method's candidate source is the token index family —
// the seam the corpus's adaptive planner hangs off (a nil tokenizer means
// the source is not the planner's to choose).
func (c config) pipelineChecked(tau int) (engine.Job, engine.Tokenizer, error) {
	if tau < 0 {
		return engine.Job{}, nil, fmt.Errorf("%w %d", ErrNegativeThreshold, tau)
	}
	if err := c.validate(); err != nil {
		return engine.Job{}, nil, err
	}
	spec, hasSpec := c.mergedPlanSpec()
	filters := make([]engine.PairFilter, 0, len(c.prefilters)+1)
	for _, p := range c.prefilters {
		filters = append(filters, p.stage())
	}
	// Signature methods default to the token inverted-index source over the
	// token bag their bound (or a sound sibling of it) is stated on: Euler
	// q-grams for the string/gram class, label-histogram entries for the
	// histogram/branch class. The source offers a subset of the sorted
	// loop's pairs and every offered pair still runs the same filter chain,
	// so results are identical; a PlanSourceSortedLoop fixed plan restores
	// the loop for ablation.
	var tz engine.Tokenizer
	switch c.method {
	case MethodPartSJ:
		if hasSpec {
			if spec.Source != PlanSourceDefault {
				return engine.Job{}, nil, fmt.Errorf("%w: %v generates candidates through the PartSJ index; its plan cannot pick a source", ErrOptionConflict, c.method)
			}
			if spec.PrefixC > 0 {
				return engine.Job{}, nil, fmt.Errorf("%w: %v takes no prefix multiplier", ErrOptionConflict, c.method)
			}
			if spec.Chain != nil {
				filters = chainStages(spec.Chain)
			}
		}
		return c.coreOptions(tau).Job(c.shards, filters), nil, nil
	case MethodSTR:
		filters = append(filters, baseline.STRFilter())
		tz = pqgram.Tokenizer(0)
	case MethodSET:
		filters = append(filters, baseline.SETFilter())
		tz = baseline.LabelTokenizer()
	case MethodHistogram:
		filters = append(filters, baseline.HISTFilter())
		tz = baseline.LabelTokenizer()
	case MethodEulerString:
		filters = append(filters, baseline.EULFilter())
		tz = pqgram.Tokenizer(0)
	case MethodPQGram:
		filters = append(filters, pqgram.Filter(0))
		tz = pqgram.Tokenizer(0)
	case MethodBruteForce:
		// Size window only — no lower bound to index on; always the loop.
	}
	useIndex := tz != nil
	prefixC := 0
	if hasSpec {
		if spec.Chain != nil {
			filters = chainStages(spec.Chain)
		}
		switch spec.Source {
		case PlanSourceTokenIndex:
			if tz == nil {
				return engine.Job{}, nil, fmt.Errorf("%w: %v has no token-index source", ErrOptionConflict, c.method)
			}
		case PlanSourceSortedLoop:
			useIndex = false
		}
		if spec.PrefixC > 0 {
			if !useIndex {
				return engine.Job{}, nil, fmt.Errorf("%w: a prefix multiplier needs the token-index source", ErrOptionConflict)
			}
			prefixC = spec.PrefixC
		}
	}
	var src engine.CandidateSource
	if useIndex {
		src = engine.TokenIndex(tz)
	}
	job := engine.Job{
		Source:  src,
		Filters: filters,
		Tau:     tau,
		Workers: c.workers,
		PrefixC: prefixC,
	}
	job.Plan = fixedPlanRecord(job, tz)
	return job, tz, nil
}

// chainStages maps a fixed-plan chain to engine filters, in order.
func chainStages(ps []Prefilter) []engine.PairFilter {
	fs := make([]engine.PairFilter, len(ps))
	for i, p := range ps {
		fs[i] = p.stage()
	}
	return fs
}

// fixedPlanRecord describes an assembled job's static plan for Stats.Plan.
// It records the plan, not the run: a token-index plan whose collection
// trips the index's own fallback still executes the loop, and Stats.Source
// reports that effective source.
func fixedPlanRecord(job engine.Job, tz engine.Tokenizer) sim.PlanRecord {
	rec := sim.PlanRecord{
		Source: plan.SourceSortedLoop,
		Chain:  make([]string, len(job.Filters)),
		Origin: plan.OriginFixed,
	}
	for i, f := range job.Filters {
		rec.Chain[i] = f.Name()
	}
	if job.Source != nil {
		rec.Source = plan.NormalizeSource(job.Source.Name())
	}
	if tz != nil && job.Source != nil {
		rec.PrefixC = tz.Slack()
		if job.PrefixC > rec.PrefixC {
			rec.PrefixC = job.PrefixC
		}
	}
	return rec
}

// job is jobChecked for the legacy free functions, which panic on invalid
// input.
func (c config) job(tau int) engine.Job {
	job, err := c.jobChecked(tau)
	if err != nil {
		panic(err.Error())
	}
	return job
}

// SelfJoin reports every unordered pair of trees in ts whose tree edit
// distance is at most tau, in ascending (I, J) order. All trees must share
// one LabelTable.
//
// Deprecated: construct a Corpus with NewCorpus and use Corpus.SelfJoin
// (cancellable, error-returning, and reusing per-tree signatures across
// calls) or Corpus.SelfJoinSeq (streaming). This wrapper remains for
// compatibility and keeps the legacy contract: it panics on a negative
// threshold or an unknown method/prefilter, and recomputes every signature
// per call.
func SelfJoin(ts []*Tree, tau int, opts ...Option) ([]Pair, Stats) {
	c := buildConfig(opts)
	pairs, st := c.job(tau).SelfJoin(ts)
	c.publishStats(st)
	return pairs, *st
}

// Join reports every cross pair (a ∈ A, b ∈ B) within distance tau; Pair.I
// indexes into a and Pair.J into b. Every method supports cross joins. Both
// collections must share one LabelTable.
//
// Deprecated: use Corpus.Join, which validates the shared label table,
// returns errors instead of panicking, and reuses cached signatures. This
// wrapper remains for compatibility and keeps the legacy panicking contract.
func Join(a, b []*Tree, tau int, opts ...Option) ([]Pair, Stats) {
	c := buildConfig(opts)
	pairs, st := c.job(tau).Join(a, b)
	c.publishStats(st)
	return pairs, *st
}

// publishStats copies st into the WithStats destination, if one was given.
func (c config) publishStats(st *Stats) {
	if c.statsDst != nil && st != nil {
		*c.statsDst = *st
	}
}

// Incremental is a streaming similarity join: trees are added one at a time,
// in any order, and each Add returns the new tree's partners among all
// previously added trees. This serves the paper's closing motivation —
// "streaming workloads where tree objects are inserted and updated at a high
// rate" — with the same PartSJ index built incrementally.
type Incremental struct {
	inner *core.Incremental
}

// NewIncremental returns an empty streaming join with threshold tau. It
// panics on a negative threshold; Corpus.Incremental is the error-returning
// form, which additionally shares the corpus's signature cache.
func NewIncremental(tau int, opts ...Option) *Incremental {
	if tau < 0 {
		panic(fmt.Sprintf("treejoin: negative threshold %d", tau))
	}
	c := buildConfig(opts)
	return &Incremental{inner: core.NewIncremental(c.coreOptions(tau))}
}

// Add inserts t and returns all pairs (existing index, new index) within the
// threshold. The new tree's index is Len()-1 after the call.
func (inc *Incremental) Add(t *Tree) []Pair { return inc.inner.Add(t) }

// Remove deletes the i-th tree from the stream: it no longer appears in the
// results of later Add calls. Positions are stable. Removing an out-of-range
// or already-removed position reports false.
func (inc *Incremental) Remove(i int) bool { return inc.inner.Remove(i) }

// Update replaces the i-th tree with t (Remove followed by Add): it returns
// the replacement's new position and its join partners among the live trees.
func (inc *Incremental) Update(i int, t *Tree) (int, []Pair) { return inc.inner.Update(i, t) }

// Pairs returns the standing result set: every pair some Add reported whose
// trees are both still live, in ascending (I, J) order — the self-join of
// the live trees at the stream's threshold, maintained across arbitrary
// Add/Remove/Update sequences without ever re-joining.
func (inc *Incremental) Pairs() []Pair { return inc.inner.Pairs() }

// Retracted drains the retraction delta: the standing pairs withdrawn by
// Remove (and Update) calls since the previous drain, in ascending (I, J)
// order. Together with Add's returned pairs it forms the full delta stream
// of the standing result — a consumer applying both mirrors Pairs() exactly;
// Stats().PairsRetracted counts the retractions cumulatively.
func (inc *Incremental) Retracted() []Pair { return inc.inner.Retracted() }

// Len returns the number of trees added so far, including removed ones.
func (inc *Incremental) Len() int { return inc.inner.Len() }

// Live returns the number of trees added and not yet removed.
func (inc *Incremental) Live() int { return inc.inner.Live() }

// Tree returns the i-th added tree, or nil if it has been removed.
func (inc *Incremental) Tree(i int) *Tree { return inc.inner.Tree(i) }

// Stats returns a snapshot of the accumulated execution statistics.
func (inc *Incremental) Stats() Stats { return inc.inner.Stats() }
